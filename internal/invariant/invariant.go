// Package invariant implements the topological invariant top(I) of a spatial
// database instance, as defined by Papadimitriou–Suciu–Vianu and used by
// Segoufin & Vianu.
//
// The invariant is a purely combinatorial (finite relational) summary of the
// maximum topological cell decomposition of the instance: it records the
// vertices, edges and faces of the decomposition, their incidences, the
// distinguished exterior face, for each region the set of cells contained in
// it, and the full cyclic order (both orientations) of the cells incident to
// each vertex.  By the results the paper imports from PSV99 it characterises
// the instance up to homeomorphism (Theorem 2.1) and can be inverted into a
// topologically equivalent linear instance (Theorem 2.2,
// translate.InvertToLinear).
//
// The Invariant type carries no coordinates: everything downstream of Compute
// (queries, translations, linearisation) works from the combinatorial data
// alone, exactly as in the paper.
package invariant

import (
	"fmt"
	"sync"

	"repro/internal/arrangement"
	"repro/internal/spatial"
)

// Sign re-exports the cell sign classification.
type Sign = arrangement.Sign

// Sign values.
const (
	Exterior = arrangement.Exterior
	Boundary = arrangement.Boundary
	Interior = arrangement.Interior
)

// CellKind re-exports the cell kind enumeration.
type CellKind = arrangement.CellKind

// Cell kinds.
const (
	VertexCell = arrangement.VertexCell
	EdgeCell   = arrangement.EdgeCell
	FaceCell   = arrangement.FaceCell
)

// CellRef identifies a cell of the invariant.
type CellRef = arrangement.CellRef

// The cell records are the complex's own: the invariant keeps each cell's
// incidences and signs and forgets its coordinates.
type (
	// VertexInfo is the combinatorial data of a 0-cell.
	VertexInfo = arrangement.VertexInfo
	// EdgeInfo is the combinatorial data of a 1-cell.
	EdgeInfo = arrangement.EdgeInfo
	// FaceInfo is the combinatorial data of a 2-cell.
	FaceInfo = arrangement.FaceInfo
)

// Invariant is the topological invariant top(I) of a spatial instance.
type Invariant struct {
	Schema   *spatial.Schema
	Vertices []*VertexInfo
	Edges    []*EdgeInfo
	Faces    []*FaceInfo
	// ExteriorFace is the index of the unbounded face.
	ExteriorFace int

	componentsOnce sync.Once
	components     *Components // computed lazily, guarded by componentsOnce
}

// Compute builds the topological invariant of the instance by constructing
// its maximum topological cell decomposition and forgetting the geometry.
func Compute(inst *spatial.Instance) (*Invariant, error) {
	cx, err := arrangement.Build(inst)
	if err != nil {
		return nil, fmt.Errorf("invariant: %w", err)
	}
	return FromComplex(cx), nil
}

// MustCompute is Compute that panics on error (for tests and examples).
func MustCompute(inst *spatial.Instance) *Invariant {
	inv, err := Compute(inst)
	if err != nil {
		panic(err)
	}
	return inv
}

// FromComplex converts a cell complex into its combinatorial invariant.  It
// copies each cell's record and shares the record's slices with the complex,
// which nothing modifies after Build.  The copy (not a pointer into the
// complex's cell) lets the geometry be collected while the invariant lives.
func FromComplex(cx *arrangement.Complex) *Invariant {
	inv := &Invariant{
		Schema:       cx.Schema,
		Vertices:     make([]*VertexInfo, len(cx.Vertices)),
		Edges:        make([]*EdgeInfo, len(cx.Edges)),
		Faces:        make([]*FaceInfo, len(cx.Faces)),
		ExteriorFace: cx.ExteriorFace,
	}
	vs := make([]VertexInfo, len(cx.Vertices))
	for i, v := range cx.Vertices {
		vs[i] = v.VertexInfo
		inv.Vertices[i] = &vs[i]
	}
	es := make([]EdgeInfo, len(cx.Edges))
	for i, e := range cx.Edges {
		es[i] = e.EdgeInfo
		inv.Edges[i] = &es[i]
	}
	fs := make([]FaceInfo, len(cx.Faces))
	for i, f := range cx.Faces {
		fs[i] = f.FaceInfo
		inv.Faces[i] = &fs[i]
	}
	return inv
}

// CellCount returns the total number of cells — the paper's unit for
// invariant size.
func (inv *Invariant) CellCount() int {
	return len(inv.Vertices) + len(inv.Edges) + len(inv.Faces)
}

// InvariantBytes returns the storage size using the paper's accounting of
// bytesPerCell bytes per cell (Sequoia ground occupancy: 3, others: 2).
func (inv *Invariant) InvariantBytes(bytesPerCell int) int {
	return inv.CellCount() * bytesPerCell
}

// Signs returns the cell's sign classes, indexed by schema position.
func (inv *Invariant) Signs(ref CellRef) []Sign {
	switch ref.Kind {
	case VertexCell:
		return inv.Vertices[ref.Index].Sign
	case EdgeCell:
		return inv.Edges[ref.Index].Sign
	case FaceCell:
		return inv.Faces[ref.Index].Sign
	default:
		return nil
	}
}

// EdgesOfVertex returns the distinct edges incident to a vertex.
func (inv *Invariant) EdgesOfVertex(v int) []int {
	seen := map[int]bool{}
	var out []int
	for _, c := range inv.Vertices[v].Cone {
		if c.Kind == EdgeCell && !seen[c.Index] {
			seen[c.Index] = true
			out = append(out, c.Index)
		}
	}
	return out
}

// ProperEdgesOfVertex returns the incident edges with two distinct endpoints.
func (inv *Invariant) ProperEdgesOfVertex(v int) []int {
	var out []int
	for _, e := range inv.EdgesOfVertex(v) {
		if inv.Edges[e].IsProper() {
			out = append(out, e)
		}
	}
	return out
}

// String summarises the invariant.
func (inv *Invariant) String() string {
	return fmt.Sprintf("top(I): %d vertices, %d edges, %d faces (%d cells)",
		len(inv.Vertices), len(inv.Edges), len(inv.Faces), inv.CellCount())
}

// Validate checks internal consistency of the invariant: incidences are
// symmetric, indices are in range, cones alternate edge/face, and the cell
// counts satisfy Euler's relation for a planar complex.
func (inv *Invariant) Validate() error {
	checkFace := func(f int) error {
		if f < 0 || f >= len(inv.Faces) {
			return fmt.Errorf("invariant: face index %d out of range", f)
		}
		return nil
	}
	for i, v := range inv.Vertices {
		if err := checkFace(v.Face); err != nil {
			return err
		}
		for j, c := range v.Cone {
			wantKind := EdgeCell
			if j%2 == 1 {
				wantKind = FaceCell
			}
			if c.Kind != wantKind {
				return fmt.Errorf("invariant: vertex %d cone position %d has kind %v", i, j, c.Kind)
			}
			if c.Kind == EdgeCell && (c.Index < 0 || c.Index >= len(inv.Edges)) {
				return fmt.Errorf("invariant: vertex %d cone references edge %d out of range", i, c.Index)
			}
			if c.Kind == FaceCell {
				if err := checkFace(c.Index); err != nil {
					return err
				}
			}
		}
	}
	for i, e := range inv.Edges {
		if e.V1 >= len(inv.Vertices) || e.V2 >= len(inv.Vertices) || e.V1 < -1 || e.V2 < -1 {
			return fmt.Errorf("invariant: edge %d endpoint out of range", i)
		}
		if (e.V1 < 0) != (e.V2 < 0) {
			return fmt.Errorf("invariant: edge %d has exactly one missing endpoint", i)
		}
		if len(e.Faces) == 0 || len(e.Faces) > 2 {
			return fmt.Errorf("invariant: edge %d has %d incident faces", i, len(e.Faces))
		}
		for _, f := range e.Faces {
			if err := checkFace(f); err != nil {
				return err
			}
			if !containsInt(inv.Faces[f].Edges, i) {
				return fmt.Errorf("invariant: face %d does not list incident edge %d", f, i)
			}
		}
	}
	ext := 0
	for i, f := range inv.Faces {
		if f.Exterior {
			ext++
			if i != inv.ExteriorFace {
				return fmt.Errorf("invariant: exterior face index mismatch")
			}
		}
		for _, e := range f.Edges {
			if e < 0 || e >= len(inv.Edges) {
				return fmt.Errorf("invariant: face %d references edge %d out of range", i, e)
			}
		}
		for _, v := range f.Vertices {
			if v < 0 || v >= len(inv.Vertices) {
				return fmt.Errorf("invariant: face %d references vertex %d out of range", i, v)
			}
		}
		for _, v := range f.IsolatedVertices {
			if v < 0 || v >= len(inv.Vertices) {
				return fmt.Errorf("invariant: face %d references isolated vertex %d out of range", i, v)
			}
		}
	}
	if ext != 1 {
		return fmt.Errorf("invariant: %d exterior faces, want exactly 1", ext)
	}
	// Euler's relation, V − E + F = 1 + C, with each free loop (an edge
	// without vertices) counted as one vertex.
	loops := 0
	for _, e := range inv.Edges {
		if e.IsFreeLoop() {
			loops++
		}
	}
	if v, c := len(inv.Vertices)+loops, inv.Components().Count(); v-len(inv.Edges)+len(inv.Faces) != 1+c {
		return fmt.Errorf("invariant: Euler's relation fails: V %d - E %d + F %d != 1 + C %d", v, len(inv.Edges), len(inv.Faces), c)
	}
	return nil
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
