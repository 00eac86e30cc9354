// Package translate implements the paper's machinery for answering
// topological queries on the invariant instead of the raw spatial data:
//
//   - Lemma 3.1 / Theorem 3.2: construction of the parameterised total orders
//     of a topological invariant (BuildComponentOrders), which is how fixpoint
//     captures PTIME on invariants of connected regions;
//   - Theorem 3.4: construction of a canonical isomorphic copy of the
//     invariant over the ordered auxiliary domain (CanonicalCode), the
//     fixpoint+counting construction for arbitrary invariants;
//   - Theorem 2.2 (restricted): inversion of an invariant into a
//     topologically equivalent semi-linear instance (InvertToLinear) for the
//     class of invariants whose skeleton components are closed curves or
//     isolated vertices — the fully-two-dimensional nesting patterns used by
//     the compression experiments;
//   - Theorem 4.1 / 4.2: the linear-time translation of topological
//     FO queries into fixpoint(+counting) queries on the invariant
//     (ToFixpointQuery), realised operationally as "invert the invariant and
//     evaluate the query on the resulting linear instance";
//   - Theorem 4.9: the translation of single-region topological queries into
//     first-order queries on the invariant (ToFOQuery) via the cones/cycles
//     normal form and ≈r classes, with the accepted classes determined by
//     realising a representative cone instance per class (Lemma 4.8).
package translate

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/cones"
	"repro/internal/geom"
	"repro/internal/invariant"
	"repro/internal/pointfo"
	"repro/internal/rat"
	"repro/internal/region"
	"repro/internal/spatial"
)

// --- Lemma 3.1: parameterised orders -------------------------------------------

// CellOrder is a total order on the cells of (a component of) an invariant,
// parameterised by an orientation, a start vertex and a start edge as in
// Lemma 3.1.
type CellOrder struct {
	// Clockwise is the orientation parameter ω.
	Clockwise bool
	// StartVertex and StartEdge are the vertex/edge parameters (-1 when the
	// component has no vertices or no proper edges).
	StartVertex, StartEdge int
	// Cells lists the component's cells in increasing order.
	Cells []invariant.CellRef
}

// BuildComponentOrders constructs, for one connected component, the total
// orders of its vertices, edges and associated faces for every admissible
// parameter choice (ω, v, e), following the traversal of Lemma 3.1.  Each
// parameter choice yields one order; the number of orders is polynomial in
// the component size.
func BuildComponentOrders(inv *invariant.Invariant, comp *invariant.Component) []CellOrder {
	params := orderParameters(inv, comp)
	orders := make([]CellOrder, 0, 2*len(params))
	for _, cw := range []bool{false, true} {
		for _, p := range params {
			orders = append(orders, buildOneOrder(inv, comp, cw, p[0], p[1]))
		}
	}
	return orders
}

// orderParameters returns the admissible (vertex, edge) parameter pairs: a
// vertex with an adjacent proper edge when one exists, otherwise the special
// cases of Lemma 3.1 (single vertex, free loop, loops around one vertex).
func orderParameters(inv *invariant.Invariant, comp *invariant.Component) [][2]int {
	var out [][2]int
	for _, v := range comp.Vertices {
		for _, e := range inv.ProperEdgesOfVertex(v) {
			out = append(out, [2]int{v, e})
		}
	}
	if len(out) > 0 {
		return out
	}
	// Special cases: no proper edges.
	for _, v := range comp.Vertices {
		es := inv.EdgesOfVertex(v)
		if len(es) == 0 {
			out = append(out, [2]int{v, -1}) // isolated vertex
			continue
		}
		for _, e := range es {
			out = append(out, [2]int{v, e}) // loops around the vertex
		}
	}
	if len(out) == 0 {
		// Component with no vertices at all: a free loop.
		for _, e := range comp.Edges {
			out = append(out, [2]int{-1, e})
		}
	}
	return out
}

// buildOneOrder performs the traversal of Lemma 3.1 for one parameter choice:
// vertices are ordered by a rotation-guided breadth-first traversal from the
// start vertex (taking proper edges in ω order starting from the start edge),
// then edges are ordered lexicographically by endpoint ranks with rotational
// tie-breaking, then faces by their sets of incident edges; vertices precede
// edges precede faces.
func buildOneOrder(inv *invariant.Invariant, comp *invariant.Component, cw bool, startV, startE int) CellOrder {
	vertexRank := make(map[int]int, len(comp.Vertices))
	var vertexSeq []int
	visit := func(v int) bool {
		if _, seen := vertexRank[v]; seen {
			return false
		}
		vertexRank[v] = len(vertexSeq)
		vertexSeq = append(vertexSeq, v)
		return true
	}
	if startV >= 0 {
		// Rotation-guided BFS over proper edges.
		type qitem struct{ v, e int }
		visit(startV)
		for queue := []qitem{{startV, startE}}; len(queue) > 0; queue = queue[1:] {
			it := queue[0]
			for _, e := range rotation(inv, it.v, it.e, cw) {
				if w := otherEndpoint(inv, e, it.v); inv.Edges[e].IsProper() && visit(w) {
					queue = append(queue, qitem{w, e})
				}
			}
		}
	}
	// Vertices not reached through proper edges (all of them when there is
	// no start vertex) follow in index order.
	for _, v := range comp.Vertices {
		visit(v)
	}

	// Edges: lexicographic by ranked endpoints; ties (multi-edges and loops)
	// broken by their position in the rotation at their smaller endpoint,
	// starting from the start edge; free loops last, in index order.
	type edgeKey struct{ r1, r2, pos, e int }
	edges := make([]edgeKey, len(comp.Edges))
	for i, e := range comp.Edges {
		info := inv.Edges[e]
		if info.IsFreeLoop() {
			edges[i] = edgeKey{1 << 30, 1 << 30, e, e}
			continue
		}
		r1, r2, v := vertexRank[info.V1], vertexRank[info.V2], info.V1
		if r2 < r1 {
			r1, r2, v = r2, r1, info.V2
		}
		edges[i] = edgeKey{r1, r2, max(slices.Index(rotation(inv, v, startE, cw), e), 0), e}
	}
	slices.SortFunc(edges, func(a, b edgeKey) int {
		return cmp.Or(cmp.Compare(a.r1, b.r1), cmp.Compare(a.r2, b.r2), cmp.Compare(a.pos, b.pos), cmp.Compare(a.e, b.e))
	})
	edgeRank := make(map[invariant.CellRef]int, len(edges))
	for i, k := range edges {
		edgeRank[invariant.CellRef{Kind: invariant.EdgeCell, Index: k.e}] = i
	}

	// Faces of the component, ordered by the sorted list of ranks of their
	// incident edges restricted to the component.  The lists compare as
	// printed strings, so "[1 10]" precedes "[1 9]".
	type faceKey struct {
		ranks string
		f     int
	}
	faces := make([]faceKey, len(comp.Faces))
	for i, f := range comp.Faces {
		faces[i] = faceKey{fmt.Sprint(faceEdgeRanks(inv, f, edgeRank)), f}
	}
	slices.SortFunc(faces, func(a, b faceKey) int {
		return cmp.Or(strings.Compare(a.ranks, b.ranks), cmp.Compare(a.f, b.f))
	})

	order := CellOrder{Clockwise: cw, StartVertex: startV, StartEdge: startE}
	for _, v := range vertexSeq {
		order.Cells = append(order.Cells, invariant.CellRef{Kind: invariant.VertexCell, Index: v})
	}
	for _, k := range edges {
		order.Cells = append(order.Cells, invariant.CellRef{Kind: invariant.EdgeCell, Index: k.e})
	}
	for _, k := range faces {
		order.Cells = append(order.Cells, invariant.CellRef{Kind: invariant.FaceCell, Index: k.f})
	}
	return order
}

// rotation lists the edges of v's cone in ω order (counterclockwise, or
// clockwise when cw), starting from edge from when the cone has it and from
// the first cone position otherwise.  A loop at v occurs twice.
func rotation(inv *invariant.Invariant, v, from int, cw bool) []int {
	cone := inv.Vertices[v].Cone
	edges := make([]int, 0, len(cone))
	for _, c := range cone {
		if c.Kind == invariant.EdgeCell {
			edges = append(edges, c.Index)
		}
	}
	if cw {
		slices.Reverse(edges)
	}
	start := max(slices.Index(edges, from), 0)
	return append(edges[start:], edges[:start]...)
}

// faceEdgeRanks returns the ranks of face f's edges that rank holds, sorted.
func faceEdgeRanks(inv *invariant.Invariant, f int, rank map[invariant.CellRef]int) []int {
	var ranks []int
	for _, e := range inv.Faces[f].Edges {
		if r, ok := rank[invariant.CellRef{Kind: invariant.EdgeCell, Index: e}]; ok {
			ranks = append(ranks, r)
		}
	}
	slices.Sort(ranks)
	return ranks
}

func otherEndpoint(inv *invariant.Invariant, e, v int) int {
	info := inv.Edges[e]
	if info.V1 == v {
		return info.V2
	}
	return info.V1
}

// --- Theorem 3.4: canonical copy -------------------------------------------------

// CanonicalCode returns a canonical string encoding of the invariant: two
// invariants have the same code exactly when they are isomorphic.  It follows
// the construction of Theorem 3.4: each component is encoded relative to each
// of its parameterised orders and the lexicographically smallest encoding is
// kept; components are then combined bottom-up along the connected-component
// tree, children sorted by their codes (isomorphic siblings are counted).
func CanonicalCode(inv *invariant.Invariant) string {
	cs := inv.Components()
	order := inv.Schema.SortedIndexes()
	var encode func(compID int) string
	encode = func(compID int) string {
		best := ""
		for _, o := range BuildComponentOrders(inv, cs.List[compID]) {
			if enc := encodeComponent(inv, order, o); best == "" || enc < best {
				best = enc
			}
		}
		if best == "" {
			best = "()"
		}
		// Children grouped by the face (rank within this component is not
		// needed for canonicity: child codes already include their own
		// structure) and sorted.
		var childCodes []string
		for _, child := range cs.Children(compID) {
			childCodes = append(childCodes, encode(child))
		}
		slices.Sort(childCodes)
		return best + "[" + strings.Join(childCodes, "|") + "]"
	}
	var tops []string
	for _, c := range cs.Children(-1) {
		tops = append(tops, encode(c))
	}
	slices.Sort(tops)
	return "{" + strings.Join(tops, "|") + "}"
}

// encodeComponent serialises a component's relations relative to one of its
// orders; regions lists the schema positions in sorted-name order.
func encodeComponent(inv *invariant.Invariant, regions []int, o CellOrder) string {
	rank := make(map[invariant.CellRef]int, len(o.Cells))
	for i, c := range o.Cells {
		rank[c] = i
	}
	// An edge endpoint that is absent (-1) or outside the order encodes as
	// -1; a cone cell outside the order encodes as 0.
	endpoint := func(v int) int {
		if r, ok := rank[invariant.CellRef{Kind: invariant.VertexCell, Index: v}]; ok {
			return r
		}
		return -1
	}
	var b strings.Builder
	var num [20]byte
	writeInt := func(x int) { b.Write(strconv.AppendInt(num[:0], int64(x), 10)) }
	for _, c := range o.Cells {
		b.WriteString(c.Kind.String()[:1])
		signs := inv.Signs(c)
		for _, r := range regions {
			b.WriteString(signs[r].String())
		}
		switch c.Kind {
		case invariant.EdgeCell:
			e := inv.Edges[c.Index]
			b.WriteString("(")
			writeInt(endpoint(e.V1))
			b.WriteString(",")
			writeInt(endpoint(e.V2))
			b.WriteString(")")
		case invariant.VertexCell:
			b.WriteString("<")
			for _, cc := range inv.Vertices[c.Index].Cone {
				writeInt(rank[cc])
				b.WriteString(",")
			}
			b.WriteString(">")
		case invariant.FaceCell:
			// The ranks print as fmt prints an []int: "[3 7 12]".
			b.WriteString("[")
			for i, r := range faceEdgeRanks(inv, c.Index, rank) {
				if i > 0 {
					b.WriteString(" ")
				}
				writeInt(r)
			}
			b.WriteString("]")
			if inv.Faces[c.Index].Exterior {
				b.WriteString("X")
			}
		}
		b.WriteString(";")
	}
	return b.String()
}

// --- Theorem 2.2 (restricted): inversion -----------------------------------------

// CanInvert reports whether the invariant is in the class InvertToLinear
// supports: every skeleton component is a single closed curve (free loop) or
// an isolated vertex.  Strategy selection (core.Auto) uses this to decide
// between the invariant-based fixpoint evaluation and the direct fallback
// without provoking — and then string-matching — the inversion error.
func CanInvert(inv *invariant.Invariant) bool {
	return unsupportedComponent(inv) == nil
}

// unsupportedComponent returns the first component outside the invertible
// class, or nil when the whole invariant is invertible.
func unsupportedComponent(inv *invariant.Invariant) *invariant.Component {
	cs := inv.Components()
	for _, c := range cs.List {
		if len(c.Edges) == 1 && len(c.Vertices) == 0 && inv.Edges[c.Edges[0]].IsFreeLoop() {
			continue
		}
		if len(c.Edges) == 0 && len(c.Vertices) == 1 {
			continue
		}
		return c
	}
	return nil
}

// InvertToLinear constructs a semi-linear spatial instance J with top(J)
// isomorphic to the given invariant.  The supported class is invariants whose
// skeleton components are single closed curves (free loops) or isolated
// vertices — the nesting patterns produced by fully-two-dimensional regions
// with disjoint or nested boundaries (disks, annuli, multi-component regions,
// nested subdivisions without shared borders).  An error is returned for
// invariants outside this class; CanInvert tests the class membership
// without the error.
func InvertToLinear(inv *invariant.Invariant) (*spatial.Instance, error) {
	if c := unsupportedComponent(inv); c != nil {
		return nil, fmt.Errorf("translate: inversion not supported for component %d (%d vertices, %d edges); supported components are free loops and isolated vertices", c.ID, len(c.Vertices), len(c.Edges))
	}
	cs := inv.Components()

	// Allocate nested boxes: children of the root get disjoint boxes along
	// the x-axis; children of a component get disjoint boxes inside the face
	// it owns (shrunk towards the centre).
	boxes := map[int]geom.Box{} // component -> bounding box of its curve / point
	var place func(parent int, b geom.Box)
	place = func(parent int, b geom.Box) {
		children := cs.Children(parent)
		if len(children) == 0 {
			return
		}
		n := int64(len(children))
		w := b.Width().Div(ratInt(n))
		for i, child := range children {
			cb := geom.NewBox(
				b.MinX.Add(w.Mul(ratInt(int64(i)))).Add(w.Div(ratInt(10))),
				b.MinX.Add(w.Mul(ratInt(int64(i+1)))).Sub(w.Div(ratInt(10))),
				b.MinY.Add(b.Height().Div(ratInt(10))),
				b.MaxY.Sub(b.Height().Div(ratInt(10))),
			)
			boxes[child] = cb
			// Children of child are embedded in the face inside child's
			// curve: shrink further.
			inner := geom.NewBox(
				cb.MinX.Add(cb.Width().Div(ratInt(5))),
				cb.MaxX.Sub(cb.Width().Div(ratInt(5))),
				cb.MinY.Add(cb.Height().Div(ratInt(5))),
				cb.MaxY.Sub(cb.Height().Div(ratInt(5))),
			)
			place(child, inner)
		}
	}
	rootBox := geom.NewBox(ratInt(0), ratInt(int64(1000*(len(cs.List)+1))), ratInt(0), ratInt(1000))
	place(-1, rootBox)

	// Geometry of each face: the box of its owner minus the boxes of the
	// components embedded directly in it.
	schema := spatial.MustSchema(inv.Schema.Names()...)
	out := spatial.NewInstance(schema)
	for ri, name := range inv.Schema.Names() {
		var features []region.Feature
		// Area features: faces contained in the region.
		for f, info := range inv.Faces {
			if info.Exterior || info.Sign[ri] == invariant.Exterior {
				continue
			}
			owner := cs.FaceOwner[f]
			outer := boxPolygon(boxes[owner])
			var holes []geom.Polygon
			for _, child := range cs.Children(owner) {
				if cs.List[child].ParentFace == f {
					holes = append(holes, boxPolygon(boxes[child]))
				}
			}
			features = append(features, region.AreaFeature(outer, holes...))
		}
		// Curve features: free-loop edges on the region's boundary whose
		// neither incident face is already contributing the curve.
		for e, info := range inv.Edges {
			if info.Sign[ri] != invariant.Boundary {
				continue
			}
			bothOutside := true
			for _, f := range info.Faces {
				if inv.Faces[f].Sign[ri] != invariant.Exterior {
					bothOutside = false
				}
			}
			if !bothOutside {
				continue // the curve is already the boundary of an area feature
			}
			comp := cs.OfEdge[e]
			pg := boxPolygon(boxes[comp])
			pts := append([]geom.Point{}, pg.Vertices...)
			pts = append(pts, pg.Vertices[0])
			pl, err := geom.NewPolyline(pts)
			if err != nil {
				return nil, err
			}
			features = append(features, region.LineFeature(pl))
		}
		// Point features: isolated vertices in the region.
		for v, info := range inv.Vertices {
			if !info.Isolated || info.Sign[ri] == invariant.Exterior {
				continue
			}
			comp := cs.OfVertex[v]
			features = append(features, region.PointFeature(boxes[comp].Center()))
		}
		if len(features) == 0 {
			continue
		}
		if err := out.Set(name, region.Region{Features: features}); err != nil {
			return nil, fmt.Errorf("translate: inversion produced an invalid region: %w", err)
		}
	}
	return out, nil
}

func boxPolygon(b geom.Box) geom.Polygon {
	return geom.MustPolygon(
		geom.PtR(b.MinX, b.MinY), geom.PtR(b.MaxX, b.MinY),
		geom.PtR(b.MaxX, b.MaxY), geom.PtR(b.MinX, b.MaxY),
	)
}

func ratInt(n int64) rat.R { return rat.FromInt(n) }

// --- Theorem 4.1 / 4.2: translation into fixpoint(+counting) ---------------------

// FixpointQuery is the result of translating a topological query for
// evaluation against the invariant in the fixpoint+counting target language.
// Operationally it follows the proof of Theorem 4.1: construct (by the
// fixpoint+counting canonical-copy machinery) a linear instance J with
// top(J) = top(I), then evaluate the original query on J.  The translation
// itself is linear in the size of the query — the query is carried verbatim
// and the (fixed) inversion machinery is independent of it.
type FixpointQuery struct {
	// Query is the original topological FO(P,<x,<y) query.
	Query pointfo.PointFormula
	// RequiresCounting reports whether the counting extension is needed
	// (always true in general; fixpoint alone suffices for connected
	// regions, Theorem 4.2).
	RequiresCounting bool
}

// ToFixpointQuery translates a topological point-language query into a
// fixpoint(+counting) query on the invariant (Theorems 4.1 and 4.2).
// connectedRegions selects the fixpoint-only variant of Theorem 4.2.
func ToFixpointQuery(q pointfo.PointFormula, connectedRegions bool) *FixpointQuery {
	return &FixpointQuery{Query: q, RequiresCounting: !connectedRegions}
}

// SentenceEvaluator evaluates an FO(P,<x,<y) sentence on an instance.  The
// translations realise small helper instances (inverted linear instances,
// representative cone instances) and evaluate the carried query on them;
// callers that hold cached compiled evaluators (the engine) inject one so
// those evaluations hit the cache instead of rebuilding arrangements.
type SentenceEvaluator func(inst *spatial.Instance, q pointfo.PointFormula) (bool, error)

// defaultEval compiles the instance once and evaluates with the compiled
// bitset evaluator.
func defaultEval(inst *spatial.Instance, q pointfo.PointFormula) (bool, error) {
	ce, err := pointfo.CompileEvaluator(inst)
	if err != nil {
		return false, err
	}
	return ce.EvalPoint(q)
}

// EvaluateOnInvariant answers the translated query on a topological
// invariant: it inverts the invariant into a linear instance and evaluates
// the carried query on it.
func (fq *FixpointQuery) EvaluateOnInvariant(inv *invariant.Invariant) (bool, error) {
	return fq.EvaluateOnInvariantUsing(inv, nil)
}

// EvaluateOnInvariantUsing is EvaluateOnInvariant with an injected sentence
// evaluator (nil uses the default compiled evaluation).
func (fq *FixpointQuery) EvaluateOnInvariantUsing(inv *invariant.Invariant, eval SentenceEvaluator) (bool, error) {
	if eval == nil {
		eval = defaultEval
	}
	j, err := InvertToLinear(inv)
	if err != nil {
		return false, err
	}
	return eval(j, fq.Query)
}

// --- Theorem 4.9: translation into FO on the invariant ----------------------------

// FOQuery is the result of translating a single-region topological query into
// a first-order query on the invariant.  The query is decided by the ≈r class
// of the invariant's cycles(I) structure (Lemma 4.7): the accepted classes
// are determined by realising a representative cone instance per class
// (Lemma 4.8) and evaluating the original query on it.  Classes are
// discovered lazily and memoised; EnumerateClasses forces the eager,
// hyperexponential enumeration used to measure translation cost (Theorem 4.9
// complexity remarks).
type FOQuery struct {
	Region     string
	Query      pointfo.PointFormula
	Rank       int // quantifier depth r of the query
	classifier *cones.Classifier
	accepted   map[string]bool
	// ClassesEvaluated counts how many representative cone instances were
	// realised and evaluated (the measure of translation cost).
	ClassesEvaluated int
	// Eval evaluates the carried query on realised representative
	// instances; nil uses the default compiled evaluation.
	Eval SentenceEvaluator
}

func (fo *FOQuery) eval() SentenceEvaluator {
	if fo.Eval != nil {
		return fo.Eval
	}
	return defaultEval
}

// ToFOQuery prepares the FO-target translation of a topological query over a
// single-region schema (Theorem 4.9).
func ToFOQuery(regionName string, q pointfo.PointFormula) *FOQuery {
	r := pointfo.QuantifierDepth(q)
	return &FOQuery{
		Region:     regionName,
		Query:      q,
		Rank:       r,
		classifier: cones.NewClassifier(r + 2),
		accepted:   map[string]bool{},
	}
}

// EvaluateOnInvariant answers the translated query on a single-region
// invariant by classifying its cycles(I) structure.  Besides the ≈r class of
// the singular-vertex cycles, the class records whether the instance has any
// regular interior points (a face contained in the region) and any regular
// boundary points (an edge): following [KPV97], the cones of regular points
// occur with unbounded multiplicity and are summarised by these two flags.
func (fo *FOQuery) EvaluateOnInvariant(inv *invariant.Invariant) (bool, error) {
	cycles, err := cones.Extract(inv, fo.Region)
	if err != nil {
		return false, err
	}
	r := inv.Schema.Index(fo.Region) // Extract checked it is present
	hasInterior := false
	for _, f := range inv.Faces {
		if f.Sign[r] != invariant.Exterior {
			hasInterior = true
			break
		}
	}
	hasEdge := len(inv.Edges) > 0
	sig := fmt.Sprintf("%s|int=%v|edge=%v", fo.classifier.Signature(cycles), hasInterior, hasEdge)
	if verdict, ok := fo.accepted[sig]; ok {
		return verdict, nil
	}
	// New ≈r class: realise a representative cone instance and evaluate the
	// original query on it (Lemma 4.8 + Lemma 4.7).
	rep, err := fo.realizeRepresentative(truncateCycles(fo.classifier, cycles, fo.Rank), hasInterior, hasEdge)
	if err != nil {
		return false, fmt.Errorf("translate: cannot realise representative instance: %w", err)
	}
	verdict, err := fo.eval()(rep, fo.Query)
	if err != nil {
		return false, err
	}
	fo.accepted[sig] = verdict
	fo.ClassesEvaluated++
	return verdict, nil
}

// realizeRepresentative builds a representative instance of a class: the
// flower-and-stems realisation of the singular cycles, plus a far-away disk
// or closed curve when the class has regular interior or boundary points not
// already provided by the cycles.
func (fo *FOQuery) realizeRepresentative(cycles []cones.Cycle, hasInterior, hasEdge bool) (*spatial.Instance, error) {
	rep, err := cones.Realize(fo.Region, cycles)
	if err != nil {
		return nil, err
	}
	anyFaceIn, anyEdge := false, false
	for _, c := range cycles {
		for _, l := range c.Labels {
			if l == cones.FaceIn {
				anyFaceIn = true
			}
			if l == cones.EdgeLabel {
				anyEdge = true
			}
		}
	}
	var extra []region.Feature
	if hasInterior && !anyFaceIn {
		extra = append(extra, region.AreaFeature(geom.Rect(-500, -500, -480, -480)))
	} else if hasEdge && !anyEdge {
		sq := geom.Rect(-500, -500, -480, -480)
		pts := append([]geom.Point{}, sq.Vertices...)
		pts = append(pts, sq.Vertices[0])
		pl, err := geom.NewPolyline(pts)
		if err != nil {
			return nil, err
		}
		extra = append(extra, region.LineFeature(pl))
	}
	if len(extra) == 0 {
		return rep, nil
	}
	features := append(append([]region.Feature{}, rep.Region(fo.Region).Features...), extra...)
	if err := rep.Set(fo.Region, region.Region{Features: features}); err != nil {
		return nil, err
	}
	return rep, nil
}

// truncateCycles keeps at most 2^r representatives of each cycle type, as in
// the ≈r equivalence.
func truncateCycles(cl *cones.Classifier, cycles []cones.Cycle, r int) []cones.Cycle {
	capAt := 1 << uint(r)
	counts := map[int]int{}
	var out []cones.Cycle
	for _, c := range cycles {
		id := cl.TypeOf(c)
		if counts[id] < capAt {
			counts[id]++
			out = append(out, c)
		}
	}
	cones.SortCycles(out)
	return out
}

// EnumerateClasses eagerly explores cycle classes up to the given maximum
// cycle length and multiset size, realising and evaluating a representative
// for each.  It returns the number of classes evaluated; the growth of this
// number with the quantifier depth exhibits the hyperexponential translation
// cost of Theorem 4.9 (experiment E6).
func (fo *FOQuery) EnumerateClasses(maxCycleLen, maxCones int) (int, error) {
	var candidates []cones.Cycle
	for _, c := range enumerateCycles(maxCycleLen) {
		if c.Validate() == nil {
			candidates = append(candidates, c)
		}
	}
	// Deduplicate candidates by type.
	byType := map[int]cones.Cycle{}
	for _, c := range candidates {
		id := fo.classifier.TypeOf(c)
		if _, ok := byType[id]; !ok {
			byType[id] = c
		}
	}
	reps := make([]cones.Cycle, 0, len(byType))
	for _, c := range byType {
		reps = append(reps, c)
	}
	cones.SortCycles(reps)
	// Enumerate multisets of representatives up to maxCones cones.
	count := 0
	var rec func(start int, chosen []cones.Cycle) error
	rec = func(start int, chosen []cones.Cycle) error {
		if len(chosen) > 0 {
			sig := fo.classifier.Signature(chosen)
			if _, ok := fo.accepted[sig]; !ok {
				rep, err := cones.Realize(fo.Region, chosen)
				if err == nil {
					verdict, err := fo.eval()(rep, fo.Query)
					if err != nil {
						return err
					}
					fo.accepted[sig] = verdict
					fo.ClassesEvaluated++
					count++
				}
			}
		}
		if len(chosen) == maxCones {
			return nil
		}
		for i := start; i < len(reps); i++ {
			if err := rec(i, append(chosen, reps[i])); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0, nil); err != nil {
		return count, err
	}
	return count, nil
}

// enumerateCycles generates all coloured cycles of even length up to maxLen
// (plus the isolated-vertex cycle).
func enumerateCycles(maxLen int) []cones.Cycle {
	out := []cones.Cycle{{Labels: []cones.Label{cones.FaceOut}}}
	for length := 2; length <= maxLen; length += 2 {
		k := length / 2
		// Each of the k faces is in or out: 2^k combinations.
		for mask := 0; mask < 1<<uint(k); mask++ {
			labels := make([]cones.Label, 0, length)
			for i := 0; i < k; i++ {
				labels = append(labels, cones.EdgeLabel)
				if mask&(1<<uint(i)) != 0 {
					labels = append(labels, cones.FaceIn)
				} else {
					labels = append(labels, cones.FaceOut)
				}
			}
			out = append(out, cones.Cycle{Labels: labels})
		}
	}
	return out
}
