package invariant

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/relational"
)

// Relation names used in the relational presentation of the invariant,
// following the schema inv(Reg) of the paper.
const (
	RelVertex       = "Vertex"
	RelEdge         = "Edge"
	RelFace         = "Face"
	RelExteriorFace = "ExteriorFace"
	RelEdgeVertex   = "EdgeVertex"
	RelFaceEdge     = "FaceEdge"
	RelFaceVertex   = "FaceVertex"
	RelOrientation  = "Orientation"
	// RegionRelPrefix prefixes the per-region unary relations to avoid
	// clashes with the fixed relation names.
	RegionRelPrefix = "Reg_"
)

// RegionRelation returns the relation name used for a region's unary
// relation in the exported structure.
func RegionRelation(name string) string { return RegionRelPrefix + name }

// Universe element layout: the two orientation marks come first, then
// vertices, edges and faces.
const (
	// ElemCCW is the counterclockwise orientation mark (the paper's ⟲).
	ElemCCW = 0
	// ElemCW is the clockwise orientation mark (the paper's ⟳).
	ElemCW = 1
)

// VertexElem returns the universe element of vertex i.
func (inv *Invariant) VertexElem(i int) int { return 2 + i }

// EdgeElem returns the universe element of edge i.
func (inv *Invariant) EdgeElem(i int) int { return 2 + len(inv.Vertices) + i }

// FaceElem returns the universe element of face i.
func (inv *Invariant) FaceElem(i int) int {
	return 2 + len(inv.Vertices) + len(inv.Edges) + i
}

// CellElem returns the universe element of an arbitrary cell reference.
func (inv *Invariant) CellElem(ref CellRef) int {
	switch ref.Kind {
	case VertexCell:
		return inv.VertexElem(ref.Index)
	case EdgeCell:
		return inv.EdgeElem(ref.Index)
	default:
		return inv.FaceElem(ref.Index)
	}
}

// ElemCell is the inverse of CellElem; ok is false for the orientation marks.
func (inv *Invariant) ElemCell(elem int) (CellRef, bool) {
	switch {
	case elem < 2:
		return CellRef{}, false
	case elem < 2+len(inv.Vertices):
		return CellRef{Kind: VertexCell, Index: elem - 2}, true
	case elem < 2+len(inv.Vertices)+len(inv.Edges):
		return CellRef{Kind: EdgeCell, Index: elem - 2 - len(inv.Vertices)}, true
	case elem < inv.UniverseSize():
		return CellRef{Kind: FaceCell, Index: elem - 2 - len(inv.Vertices) - len(inv.Edges)}, true
	default:
		return CellRef{}, false
	}
}

// UniverseSize returns the number of elements of the invariant's universe
// (all cells plus the two orientation marks).
func (inv *Invariant) UniverseSize() int { return 2 + inv.CellCount() }

// ToStructure exports the invariant as a finite relational structure over the
// schema inv(Reg):
//
//   - unary Vertex, Edge, Face, ExteriorFace;
//   - binary EdgeVertex, FaceEdge, FaceVertex;
//   - one unary relation Reg_p per region name p holding the cells contained
//     in p;
//   - the 5-ary Orientation relation giving, for each orientation mark, each
//     vertex and each triple of distinct cells incident to the vertex,
//     whether the second lies between the first and third in that rotational
//     order (the full cyclic order required by Theorem 4.9).
func (inv *Invariant) ToStructure() *relational.Structure {
	s := relational.NewStructure(inv.UniverseSize())
	s.Names[ElemCCW] = "ccw"
	s.Names[ElemCW] = "cw"

	vertexRel := s.AddRelation(RelVertex, 1)
	edgeRel := s.AddRelation(RelEdge, 1)
	faceRel := s.AddRelation(RelFace, 1)
	extRel := s.AddRelation(RelExteriorFace, 1)
	edgeVertex := s.AddRelation(RelEdgeVertex, 2)
	faceEdge := s.AddRelation(RelFaceEdge, 2)
	faceVertex := s.AddRelation(RelFaceVertex, 2)
	orientation := s.AddRelation(RelOrientation, 5)
	regionRels := map[string]*relational.Relation{}
	for _, name := range inv.Schema.Names() {
		regionRels[name] = s.AddRelation(RegionRelation(name), 1)
	}

	for i := range inv.Vertices {
		e := inv.VertexElem(i)
		vertexRel.Add(e)
		s.Names[e] = fmt.Sprintf("v%d", i)
	}
	for i := range inv.Edges {
		e := inv.EdgeElem(i)
		edgeRel.Add(e)
		s.Names[e] = fmt.Sprintf("e%d", i)
	}
	for i, f := range inv.Faces {
		e := inv.FaceElem(i)
		faceRel.Add(e)
		s.Names[e] = fmt.Sprintf("f%d", i)
		if f.Exterior {
			extRel.Add(e)
		}
	}

	for i, e := range inv.Edges {
		for _, v := range []int{e.V1, e.V2} {
			if v >= 0 {
				edgeVertex.Add(inv.EdgeElem(i), inv.VertexElem(v))
			}
		}
	}
	for i, f := range inv.Faces {
		for _, e := range f.Edges {
			faceEdge.Add(inv.FaceElem(i), inv.EdgeElem(e))
		}
		for _, v := range f.Vertices {
			faceVertex.Add(inv.FaceElem(i), inv.VertexElem(v))
		}
	}
	for ri, name := range inv.Schema.Names() {
		rel := regionRels[name]
		for i, v := range inv.Vertices {
			if v.Sign[ri] != Exterior {
				rel.Add(inv.VertexElem(i))
			}
		}
		for i, e := range inv.Edges {
			if e.Sign[ri] != Exterior {
				rel.Add(inv.EdgeElem(i))
			}
		}
		for i, f := range inv.Faces {
			if f.Sign[ri] != Exterior {
				rel.Add(inv.FaceElem(i))
			}
		}
	}

	// Orientation: cyclic betweenness of distinct incident cells, in both
	// rotational orders.
	for vi, v := range inv.Vertices {
		cone := v.Cone
		n := len(cone)
		if n < 3 {
			continue
		}
		elems := make([]int, n)
		for i, c := range cone {
			elems[i] = inv.CellElem(c)
		}
		vElem := inv.VertexElem(vi)
		for i := 0; i < n; i++ {
			for dj := 1; dj < n; dj++ {
				for dk := dj + 1; dk < n; dk++ {
					a := elems[i]
					b := elems[(i+dj)%n]
					c := elems[(i+dk)%n]
					if a == b || b == c || a == c {
						continue
					}
					// Going counterclockwise from position i we meet b
					// before c, so b lies between a and c counterclockwise.
					orientation.Add(ElemCCW, vElem, a, b, c)
					// Clockwise, the reverse triple holds.
					orientation.Add(ElemCW, vElem, c, b, a)
				}
			}
		}
	}
	return s
}

// Fingerprint returns a cheap isomorphism-invariant summary of the invariant,
// usable as a fast negative test before running the full isomorphism search.
func (inv *Invariant) Fingerprint() string {
	var parts []string
	parts = append(parts, fmt.Sprintf("V=%d;E=%d;F=%d", len(inv.Vertices), len(inv.Edges), len(inv.Faces)))

	order := inv.Schema.SortedIndexes()
	signKey := func(signs []Sign) string {
		var b strings.Builder
		for _, r := range order {
			b.WriteString(signs[r].String())
		}
		return b.String()
	}
	var vprofs, eprofs, fprofs []string
	for _, v := range inv.Vertices {
		vprofs = append(vprofs, fmt.Sprintf("d%d:%s", v.Degree(), signKey(v.Sign)))
	}
	for _, e := range inv.Edges {
		kind := "p"
		if e.IsLoop() {
			kind = "l"
		} else if e.IsFreeLoop() {
			kind = "o"
		}
		eprofs = append(eprofs, fmt.Sprintf("%s:%s:f%d", kind, signKey(e.Sign), len(e.Faces)))
	}
	for _, f := range inv.Faces {
		ext := ""
		if f.Exterior {
			ext = "X"
		}
		fprofs = append(fprofs, fmt.Sprintf("%s%s:e%d:v%d", ext, signKey(f.Sign), len(f.Edges), len(f.Vertices)))
	}
	sort.Strings(vprofs)
	sort.Strings(eprofs)
	sort.Strings(fprofs)
	parts = append(parts, strings.Join(vprofs, ","), strings.Join(eprofs, ","), strings.Join(fprofs, ","))
	cs := inv.Components()
	parts = append(parts, fmt.Sprintf("C=%d", cs.Count()))
	var depths []int
	for _, c := range cs.List {
		depths = append(depths, c.Distance)
	}
	sort.Ints(depths)
	parts = append(parts, fmt.Sprintf("dists=%v", depths))
	return strings.Join(parts, "|")
}

// Isomorphic reports whether two invariants are isomorphic as relational
// structures, which by Theorem 2.1(ii) holds exactly when the underlying
// spatial instances are topologically equivalent.
func Isomorphic(a, b *Invariant) bool {
	if a.Fingerprint() != b.Fingerprint() {
		return false
	}
	return relational.Isomorphic(a.ToStructure(), b.ToStructure())
}
