// Package cones implements the cone / cycle normal form of Section 4 of the
// paper for single-region spatial databases: the cone of each vertex (the
// cyclic list of edges and faces around it, labelled by membership in the
// region), the derived coloured-cycle structure cycles(I), FOr-type
// classification of cycles, the ≈r equivalence on cycle multisets, and the
// geometric realisation of a cycle class as a "flower and stems" cone
// instance (Lemma 4.8).
package cones

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ef"
	"repro/internal/geom"
	"repro/internal/invariant"
	"repro/internal/rat"
	"repro/internal/region"
	"repro/internal/relational"
	"repro/internal/spatial"
)

// Label is the colour of one element of a cone cycle.
type Label int

const (
	// EdgeLabel marks an edge incident to the vertex.
	EdgeLabel Label = iota
	// FaceIn marks an incident face contained in the region.
	FaceIn
	// FaceOut marks an incident face outside the region.
	FaceOut
)

func (l Label) String() string {
	switch l {
	case EdgeLabel:
		return "e"
	case FaceIn:
		return "F"
	case FaceOut:
		return "·"
	default:
		return "?"
	}
}

// Cycle is the coloured cyclic sequence of cells around one vertex
// (counterclockwise).  A length-1 cycle describes an isolated vertex (its
// single label is the colour of the containing face).
type Cycle struct {
	Labels []Label
}

// String renders the cycle compactly.
func (c Cycle) String() string {
	var b strings.Builder
	for _, l := range c.Labels {
		b.WriteString(l.String())
	}
	return b.String()
}

// Degree returns the number of edges in the cycle.
func (c Cycle) Degree() int {
	n := 0
	for _, l := range c.Labels {
		if l == EdgeLabel {
			n++
		}
	}
	return n
}

// Validate checks that the cycle has the alternating edge/face shape of a
// vertex cone and that no edge separates two in-faces (such an edge would be
// interior to the region and absent from the decomposition).
func (c Cycle) Validate() error {
	n := len(c.Labels)
	if n == 0 {
		return fmt.Errorf("cones: empty cycle")
	}
	if n == 1 {
		if c.Labels[0] == EdgeLabel {
			return fmt.Errorf("cones: length-1 cycle must be a face label")
		}
		return nil
	}
	if n%2 != 0 {
		return fmt.Errorf("cones: cycle length %d is not even", n)
	}
	for i, l := range c.Labels {
		isEdge := l == EdgeLabel
		if (i%2 == 0) != isEdge {
			return fmt.Errorf("cones: cycle %s does not alternate edges and faces", c)
		}
	}
	for i := 0; i < n; i += 2 {
		prev := c.Labels[(i-1+n)%n]
		next := c.Labels[(i+1)%n]
		if prev == FaceIn && next == FaceIn {
			return fmt.Errorf("cones: edge at position %d separates two interior faces", i)
		}
	}
	return nil
}

// Extract computes the cycles(I) structure of a single-region invariant: one
// coloured cycle per vertex.  It fails if the schema has more than one region
// (the translation of Theorem 4.9 only exists for single-region schemas).
func Extract(inv *invariant.Invariant, regionName string) ([]Cycle, error) {
	if !inv.Schema.Has(regionName) {
		return nil, fmt.Errorf("cones: region %q not in schema", regionName)
	}
	if inv.Schema.Size() != 1 {
		return nil, fmt.Errorf("cones: cycles(I) is defined for single-region schemas, schema has %d regions", inv.Schema.Size())
	}
	var out []Cycle
	for _, v := range inv.Vertices {
		if len(v.Cone) == 0 {
			// Isolated vertex: a single face label.
			lbl := FaceOut
			if inv.Faces[v.Face].Sign[regionName] != invariant.Exterior {
				lbl = FaceIn
			}
			out = append(out, Cycle{Labels: []Label{lbl}})
			continue
		}
		labels := make([]Label, 0, len(v.Cone))
		for _, ref := range v.Cone {
			switch ref.Kind {
			case invariant.EdgeCell:
				labels = append(labels, EdgeLabel)
			case invariant.FaceCell:
				if inv.Faces[ref.Index].Sign[regionName] != invariant.Exterior {
					labels = append(labels, FaceIn)
				} else {
					labels = append(labels, FaceOut)
				}
			}
		}
		out = append(out, Cycle{Labels: labels})
	}
	return out, nil
}

// Structure encodes the cycle as a finite relational structure suitable for
// Ehrenfeucht–Fraïssé games: the universe is the cycle's positions plus two
// orientation marks, with unary colour relations and the 4-ary cyclic
// betweenness relation Btw(ω, x, y, z) in both rotational orders (mirroring
// the invariant's Orientation/Between relation restricted to one vertex).
func (c Cycle) Structure() *relational.Structure {
	n := len(c.Labels)
	s := relational.NewStructure(n + 2)
	orient := s.AddRelation("Orient", 1)
	orient.Add(n)     // counterclockwise mark
	orient.Add(n + 1) // clockwise mark
	edge := s.AddRelation("EdgeLbl", 1)
	faceIn := s.AddRelation("FaceInLbl", 1)
	faceOut := s.AddRelation("FaceOutLbl", 1)
	for i, l := range c.Labels {
		switch l {
		case EdgeLabel:
			edge.Add(i)
		case FaceIn:
			faceIn.Add(i)
		case FaceOut:
			faceOut.Add(i)
		}
	}
	btw := s.AddRelation("Btw", 4)
	if n >= 3 {
		for i := 0; i < n; i++ {
			for dj := 1; dj < n; dj++ {
				for dk := dj + 1; dk < n; dk++ {
					a, b, cc := i, (i+dj)%n, (i+dk)%n
					btw.Add(n, a, b, cc)   // ccw
					btw.Add(n+1, cc, b, a) // cw
				}
			}
		}
	}
	return s
}

// Equivalent reports whether two cycles are FOr-equivalent (as Between
// structures) — the building block of the ≈r equivalence of Lemma 4.7.
func Equivalent(a, b Cycle, r int) bool {
	return ef.Equivalent(a.Structure(), b.Structure(), r)
}

// Classifier assigns type IDs to cycles up to FO(r)-equivalence and computes
// the ≈r signature of cycle multisets.
type Classifier struct {
	r     int
	index *ef.TypeIndex
	memo  map[string]int
}

// NewClassifier builds a classifier at quantifier rank r (the paper uses
// rank r+2 relative to the input query's depth r).
func NewClassifier(r int) *Classifier {
	return &Classifier{r: r, index: ef.NewTypeIndex(r), memo: map[string]int{}}
}

// Rank returns the classifier's quantifier rank.
func (cl *Classifier) Rank() int { return cl.r }

// TypeOf returns the type ID of a cycle.
func (cl *Classifier) TypeOf(c Cycle) int {
	key := c.String()
	if id, ok := cl.memo[key]; ok {
		return id
	}
	id := cl.index.Classify(c.Structure())
	cl.memo[key] = id
	return id
}

// TypeCount returns the number of distinct cycle types seen.
func (cl *Classifier) TypeCount() int { return cl.index.Count() }

// Signature returns the ≈r signature of a cycle multiset: the multiset of
// cycle type IDs with multiplicities truncated at 2^r.
func (cl *Classifier) Signature(cycles []Cycle) string {
	ids := make([]int, len(cycles))
	for i, c := range cycles {
		ids[i] = cl.TypeOf(c)
	}
	capAt := 1 << uint(cl.r)
	return ef.Multiset(ids, capAt)
}

// --- realisation (Lemma 4.8) ---------------------------------------------------

// Realize constructs a single-region spatial instance whose cycles(I)
// contains the requested cycles: each cycle is realised as a flower-and-stems
// cone placed far from the others.  Pure stems (edges with exterior faces on
// both sides) are connected in consecutive pairs outside the flower; if their
// number is odd, the last stem ends in a free endpoint, which adds one
// degree-1 cycle to the realised instance (a documented approximation of the
// paper's normal form, harmless for the query batteries used here).
func Realize(regionName string, cycles []Cycle) (*spatial.Instance, error) {
	schema := spatial.MustSchema(regionName)
	var features []region.Feature
	const spacing = 1000
	for i, c := range cycles {
		if err := c.Validate(); err != nil {
			return nil, err
		}
		fs, err := realizeOne(c, geom.Pt(int64(i)*spacing, 0))
		if err != nil {
			return nil, fmt.Errorf("cones: cycle %d (%s): %w", i, c, err)
		}
		features = append(features, fs...)
	}
	inst := spatial.NewInstance(schema)
	if err := inst.Set(regionName, region.Region{Features: features}); err != nil {
		return nil, err
	}
	return inst, nil
}

// realizeOne builds the features of a single cone centred at the given point.
func realizeOne(c Cycle, center geom.Point) ([]region.Feature, error) {
	n := len(c.Labels)
	if n == 1 {
		switch c.Labels[0] {
		case FaceOut:
			return []region.Feature{region.PointFeature(center)}, nil
		default:
			return nil, fmt.Errorf("isolated vertex inside the region interior is not a cell")
		}
	}
	k := n / 2 // number of spokes
	// Spoke endpoints: k points in convex position around the centre, on the
	// boundary of a square of half-side 12 (rational coordinates), together
	// with their perimeter positions.
	ends, dists := spokeEndpoints(center, k)
	var features []region.Feature
	// Petals: for each interior face label at position 2i+1 (between spoke i
	// and spoke i+1), a filled polygon bounded by the two spokes and the
	// portion of the square between them (including any corners, so that the
	// polygon is never degenerate).
	var pureStems []int
	for i := 0; i < k; i++ {
		faceLbl := c.Labels[(2*i+1)%n]
		j := (i + 1) % k
		if faceLbl == FaceIn {
			pts := []geom.Point{center, ends[i]}
			for _, d := range cornersBetween(dists[i], dists[j]) {
				pts = append(pts, squarePerimeterPoint(center, d))
			}
			pts = append(pts, ends[j])
			pg, err := geom.NewPolygon(dedupeConsecutive(pts))
			if err != nil {
				return nil, err
			}
			features = append(features, region.AreaFeature(pg))
		}
		// Spoke i is a pure stem when both adjacent faces are exterior.
		prevFace := c.Labels[(2*i-1+n)%n]
		thisFace := c.Labels[(2*i+1)%n]
		if prevFace == FaceOut && thisFace == FaceOut {
			pureStems = append(pureStems, i)
		}
	}
	// Stems: line features from the centre to the spoke endpoint, connected
	// in consecutive pairs by a detour routed along the three-times-scaled
	// square (outside all petals, so no unintended crossings).
	scale3 := func(p geom.Point) geom.Point { return farPoint(center, p) }
	for j := 0; j+1 < len(pureStems); j += 2 {
		a, b := pureStems[j], pureStems[j+1]
		path := []geom.Point{center, ends[a], scale3(ends[a])}
		for _, d := range cornersBetween(dists[a], dists[b]) {
			path = append(path, scale3(squarePerimeterPoint(center, d)))
		}
		path = append(path, scale3(ends[b]), ends[b], center)
		pl, err := geom.NewPolyline(dedupeConsecutive(path))
		if err != nil {
			return nil, err
		}
		features = append(features, region.LineFeature(pl))
	}
	if len(pureStems)%2 == 1 {
		a := pureStems[len(pureStems)-1]
		pl, err := geom.NewPolyline([]geom.Point{center, ends[a]})
		if err != nil {
			return nil, err
		}
		features = append(features, region.LineFeature(pl))
	}
	if len(features) == 0 {
		return nil, fmt.Errorf("cycle %s realises no features", c)
	}
	return features, nil
}

// spokeEndpoints returns k points in convex position around the centre, in
// counterclockwise order on the boundary of the square of half-side 12
// (walked counterclockwise from the corner (12,-12)), together with their
// perimeter positions.
func spokeEndpoints(center geom.Point, k int) ([]geom.Point, []rat.R) {
	pts := make([]geom.Point, k)
	dists := make([]rat.R, k)
	for i := 0; i < k; i++ {
		// Perimeter distance 96·i/k from the starting corner, exactly.
		d := rat.New(int64(96*i), int64(k))
		dists[i] = d
		pts[i] = squarePerimeterPoint(center, d)
	}
	return pts, dists
}

// cornersBetween returns the perimeter distances of the square's corners
// strictly between d1 and d2 when walking counterclockwise from d1 to d2
// (wrapping past 96 when d2 ≤ d1), in walking order.
func cornersBetween(d1, d2 rat.R) []rat.R {
	perimeter := rat.FromInt(96)
	end := d2
	if end.LessEq(d1) {
		end = end.Add(perimeter)
	}
	var out []rat.R
	for c := int64(0); c <= 96+96; c += 24 {
		corner := rat.FromInt(c)
		if d1.Less(corner) && corner.Less(end) {
			// Normalise back into [0,96).
			norm := corner
			if !norm.Less(perimeter) {
				norm = norm.Sub(perimeter)
			}
			out = append(out, norm)
		}
	}
	return out
}

// squarePerimeterPoint returns the point at counterclockwise perimeter
// distance d (0 ≤ d < 96) from the corner (12,-12) of the square of half-side
// 12 around center.
func squarePerimeterPoint(center geom.Point, d rat.R) geom.Point {
	twelve := rat.FromInt(12)
	side24 := rat.FromInt(24)
	side := 0
	for d.Cmp(side24) >= 0 {
		d = d.Sub(side24)
		side++
	}
	var dx, dy rat.R
	switch side % 4 {
	case 0: // (12,-12) → (12,12)
		dx, dy = twelve, d.Sub(twelve)
	case 1: // (12,12) → (-12,12)
		dx, dy = twelve.Sub(d), twelve
	case 2: // (-12,12) → (-12,-12)
		dx, dy = twelve.Neg(), twelve.Sub(d)
	default: // (-12,-12) → (12,-12)
		dx, dy = d.Sub(twelve), twelve.Neg()
	}
	return geom.PtR(center.X.Add(dx), center.Y.Add(dy))
}

// farPoint returns a point radially outward from the centre through p, well
// outside the flower, used to route stem connections without crossings.
func farPoint(center, p geom.Point) geom.Point {
	d := p.Sub(center)
	three := rat.FromInt(3)
	return geom.PtR(center.X.Add(d.X.Mul(three)), center.Y.Add(d.Y.Mul(three)))
}

func dedupeConsecutive(pts []geom.Point) []geom.Point {
	out := pts[:0]
	for _, p := range pts {
		if len(out) == 0 || !out[len(out)-1].Equal(p) {
			out = append(out, p)
		}
	}
	return out
}

// SortCycles orders cycles deterministically (by string form), for stable
// signatures and reports.
func SortCycles(cycles []Cycle) {
	sort.Slice(cycles, func(i, j int) bool { return cycles[i].String() < cycles[j].String() })
}
