package invariant

import (
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/rat"
	"repro/internal/region"
	"repro/internal/relational"
	"repro/internal/spatial"
)

func instOf(t *testing.T, regs map[string]region.Region) *spatial.Instance {
	t.Helper()
	names := make([]string, 0, len(regs))
	for n := range regs {
		names = append(names, n)
	}
	return spatial.MustBuild(spatial.MustSchema(names...), regs)
}

func TestRectangleInvariant(t *testing.T) {
	inv := MustCompute(instOf(t, map[string]region.Region{"P": region.Rect(0, 0, 4, 4)}))
	if len(inv.Vertices) != 0 || len(inv.Edges) != 1 || len(inv.Faces) != 2 {
		t.Fatalf("got %s", inv)
	}
	if err := inv.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if inv.CellCount() != 3 || inv.UniverseSize() != 5 {
		t.Errorf("CellCount=%d UniverseSize=%d", inv.CellCount(), inv.UniverseSize())
	}
	if inv.InvariantBytes(2) != 6 {
		t.Errorf("InvariantBytes = %d", inv.InvariantBytes(2))
	}
	if !inv.Edges[0].IsFreeLoop() {
		t.Error("boundary should be a free loop")
	}
	// Containment of cells in P, schema position 0.
	if inv.Signs(CellRef{Kind: EdgeCell, Index: 0})[0] != Boundary {
		t.Error("boundary edge should be on P's boundary")
	}
	interiorFaces := 0
	for i := range inv.Faces {
		if s := inv.Signs(CellRef{Kind: FaceCell, Index: i})[0]; s != Exterior {
			interiorFaces++
			if s != Interior {
				t.Error("contained face should be interior")
			}
		}
	}
	if interiorFaces != 1 {
		t.Errorf("faces contained in P = %d, want 1", interiorFaces)
	}
}

func TestToStructureSchema(t *testing.T) {
	inv := MustCompute(instOf(t, map[string]region.Region{
		"P": region.Rect(0, 0, 4, 4),
		"Q": region.Rect(2, 2, 6, 6),
	}))
	s := inv.ToStructure()
	for _, rel := range []string{RelVertex, RelEdge, RelFace, RelExteriorFace, RelEdgeVertex, RelFaceEdge, RelFaceVertex, RelOrientation, RegionRelation("P"), RegionRelation("Q")} {
		if !s.HasRelation(rel) {
			t.Errorf("missing relation %s", rel)
		}
	}
	if s.Relation(RelVertex).Size() != len(inv.Vertices) {
		t.Error("Vertex relation size mismatch")
	}
	if s.Relation(RelEdge).Size() != len(inv.Edges) {
		t.Error("Edge relation size mismatch")
	}
	if s.Relation(RelFace).Size() != len(inv.Faces) {
		t.Error("Face relation size mismatch")
	}
	if s.Relation(RelExteriorFace).Size() != 1 {
		t.Error("ExteriorFace relation should have exactly one tuple")
	}
	if s.Size != inv.UniverseSize() {
		t.Error("universe size mismatch")
	}
	// Each crossing vertex is incident to 4 edges in EdgeVertex.
	ev := s.Relation(RelEdgeVertex)
	for i := range inv.Vertices {
		cnt := 0
		for _, tup := range ev.Tuples() {
			if tup[1] == inv.VertexElem(i) {
				cnt++
			}
		}
		if cnt != 4 {
			t.Errorf("vertex %d has %d EdgeVertex tuples, want 4", i, cnt)
		}
	}
	// Orientation tuples reference the orientation marks and the vertex.
	or := s.Relation(RelOrientation)
	if or.Size() == 0 {
		t.Fatal("Orientation relation empty")
	}
	for _, tup := range or.Tuples() {
		if tup[0] != ElemCCW && tup[0] != ElemCW {
			t.Errorf("Orientation tuple %v does not start with an orientation mark", tup)
		}
		if ref, ok := inv.ElemCell(tup[1]); !ok || ref.Kind != VertexCell {
			t.Errorf("Orientation tuple %v second position is not a vertex", tup)
		}
	}
	// Element round-tripping.
	for i := range inv.Edges {
		ref, ok := inv.ElemCell(inv.EdgeElem(i))
		if !ok || ref.Kind != EdgeCell || ref.Index != i {
			t.Error("ElemCell(EdgeElem) round trip failed")
		}
	}
	if _, ok := inv.ElemCell(ElemCW); ok {
		t.Error("orientation mark should not map to a cell")
	}
	if _, ok := inv.ElemCell(s.Size + 5); ok {
		t.Error("out-of-range element should not map to a cell")
	}
}

func TestOrientationCyclicConsistency(t *testing.T) {
	inv := MustCompute(instOf(t, map[string]region.Region{
		"P": region.Rect(0, 0, 4, 4),
		"Q": region.Rect(2, 2, 6, 6),
	}))
	s := inv.ToStructure()
	or := s.Relation(RelOrientation)
	// For every CCW betweenness tuple, the reversed triple is CW.
	for _, tup := range or.Tuples() {
		if tup[0] == ElemCCW {
			if !or.Has(ElemCW, tup[1], tup[4], tup[3], tup[2]) {
				t.Errorf("missing CW mirror of %v", tup)
			}
		}
	}
}

func TestIsomorphismUnderHomeomorphism(t *testing.T) {
	base := map[string]region.Region{
		"P": region.Rect(0, 0, 4, 4),
		"Q": region.Rect(2, 2, 6, 6),
	}
	a := MustCompute(instOf(t, base))
	// Translation, scaling and reflection are homeomorphisms of the plane:
	// the invariants must be isomorphic.
	moved := map[string]region.Region{}
	for k, r := range base {
		moved[k] = r.Translate(rat.FromInt(100), rat.FromInt(-3)).Scale(rat.FromInt(3)).ReflectX()
	}
	b := MustCompute(instOf(t, moved))
	if !Isomorphic(a, b) {
		t.Error("homeomorphic instances should have isomorphic invariants")
	}
	// A topologically different instance is not isomorphic.
	c := MustCompute(instOf(t, map[string]region.Region{
		"P": region.Rect(0, 0, 4, 4),
		"Q": region.Rect(10, 10, 14, 14), // disjoint instead of overlapping
	}))
	if Isomorphic(a, c) {
		t.Error("non-equivalent instances reported isomorphic")
	}
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("fingerprints of non-equivalent instances should differ")
	}
}

func TestIsomorphismDistinguishesRegionSwap(t *testing.T) {
	// P inside Q versus Q inside P: same shape but region names swapped, so
	// the invariants must not be isomorphic.
	a := MustCompute(instOf(t, map[string]region.Region{
		"P": region.Rect(0, 0, 10, 10),
		"Q": region.Rect(3, 3, 6, 6),
	}))
	b := MustCompute(instOf(t, map[string]region.Region{
		"Q": region.Rect(0, 0, 10, 10),
		"P": region.Rect(3, 3, 6, 6),
	}))
	if Isomorphic(a, b) {
		t.Error("region-swapped nesting should not be isomorphic")
	}
}

func TestComponentsNested(t *testing.T) {
	// P is an annulus (two boundary circles), Q a square inside the hole,
	// R a square far away.  Components: P-outer (dist 0), P-inner (dist 1),
	// Q (dist 2), R (dist 0).
	inv := MustCompute(instOf(t, map[string]region.Region{
		"P": region.Annulus(0, 0, 30, 30, 2),
		"Q": region.Rect(10, 10, 20, 20),
		"R": region.Rect(40, 0, 50, 10),
	}))
	cs := inv.Components()
	if cs.Count() != 4 {
		t.Fatalf("components = %d, want 4\n%s", cs.Count(), cs.TreeString())
	}
	distCounts := map[int]int{}
	for _, c := range cs.List {
		distCounts[c.Distance]++
	}
	if distCounts[0] != 2 || distCounts[1] != 1 || distCounts[2] != 1 {
		t.Errorf("distance distribution = %v, want 2 at 0, 1 at 1, 1 at 2", distCounts)
	}
	// Tree shape: root has two children (P-outer, R); P-outer has one child
	// (P-inner); P-inner has one child (Q).
	roots := cs.Children(-1)
	if len(roots) != 2 {
		t.Fatalf("root children = %d, want 2\n%s", len(roots), cs.TreeString())
	}
	// Find the component of Q (distance 2) and walk up.
	var qComp *Component
	for _, c := range cs.List {
		if c.Distance == 2 {
			qComp = c
		}
	}
	if qComp == nil {
		t.Fatal("no component at distance 2")
	}
	if len(qComp.Regions) != 1 || qComp.Regions[0] != "Q" {
		t.Errorf("deepest component regions = %v, want [Q]", qComp.Regions)
	}
	parent := cs.List[qComp.Parent]
	if parent.Distance != 1 {
		t.Errorf("Q's parent distance = %d, want 1", parent.Distance)
	}
	grand := cs.List[parent.Parent]
	if grand.Distance != 0 || grand.Parent != -1 {
		t.Errorf("grandparent should be a root child at distance 0")
	}
	depth := 0
	for c := qComp; c.Parent != -1; c = cs.List[c.Parent] {
		depth++
	}
	if depth != 2 {
		t.Errorf("depth of Q's component = %d, want 2", depth)
	}
	// P's boundary meets two components.
	if len(cs.RegionComponents["P"]) != 2 {
		t.Errorf("P spans %d components, want 2", len(cs.RegionComponents["P"]))
	}
	// Face ownership: every bounded face is owned by some component, and the
	// total face count distributed among components is |Faces|-1.
	owned := 0
	for f, owner := range cs.FaceOwner {
		if f == inv.ExteriorFace {
			if owner != -1 {
				t.Error("exterior face should have no owner")
			}
			continue
		}
		if owner < 0 {
			t.Errorf("face %d has no owner", f)
		}
		owned++
	}
	if owned != len(inv.Faces)-1 {
		t.Errorf("owned faces = %d, want %d", owned, len(inv.Faces)-1)
	}
	if !strings.Contains(cs.TreeString(), "⊥") {
		t.Error("TreeString missing root")
	}
}

func TestComponentsSimplePartition(t *testing.T) {
	inv := MustCompute(instOf(t, map[string]region.Region{
		"P": region.Rect(0, 0, 4, 4),
		"Q": region.Rect(2, 2, 6, 6),
		"R": region.Rect(20, 20, 24, 24),
	}))
	cs := inv.Components()
	// P and Q boundaries cross, so they form one component; R is separate.
	if cs.Count() != 2 {
		t.Fatalf("components = %d, want 2", cs.Count())
	}
	for _, name := range []string{"P", "Q", "R"} {
		if got := cs.RegionComponents[name]; len(got) != 1 {
			t.Fatalf("%s meets components %v, want exactly one", name, got)
		}
	}
	if p, q, r := cs.RegionComponents["P"][0], cs.RegionComponents["Q"][0], cs.RegionComponents["R"][0]; p != q || p == r {
		t.Errorf("components P=%d Q=%d R=%d, want P and Q shared and R apart", p, q, r)
	}
}

func TestIsolatedVertexComponent(t *testing.T) {
	inv := MustCompute(instOf(t, map[string]region.Region{
		"P": region.Rect(0, 0, 4, 4),
		"Q": region.FromPoint(geom.Pt(2, 2)), // a point inside P
	}))
	if len(inv.Vertices) != 1 || !inv.Vertices[0].Isolated {
		t.Fatalf("expected one isolated vertex, got %s", inv)
	}
	cs := inv.Components()
	if cs.Count() != 2 {
		t.Fatalf("components = %d, want 2", cs.Count())
	}
	// The point component sits inside P's face: distance 1.
	var ptComp *Component
	for _, c := range cs.List {
		if len(c.Edges) == 0 {
			ptComp = c
		}
	}
	if ptComp == nil {
		t.Fatal("no vertex-only component found")
	}
	if ptComp.Distance != 1 {
		t.Errorf("point component distance = %d, want 1", ptComp.Distance)
	}
	if ptComp.Parent == -1 {
		t.Error("point component should be nested under P's boundary component")
	}
	if err := inv.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestHasProperEdgeAndHelpers(t *testing.T) {
	inv := MustCompute(instOf(t, map[string]region.Region{
		"P": region.Rect(0, 0, 4, 4),
		"Q": region.Rect(2, 2, 6, 6),
	}))
	cs := inv.Components()
	if cs.Count() != 1 {
		t.Fatal("expected one component")
	}
	// Vertex helpers.
	for v := range inv.Vertices {
		if got := len(inv.EdgesOfVertex(v)); got != 4 {
			t.Errorf("EdgesOfVertex = %d, want 4", got)
		}
		if got := len(inv.ProperEdgesOfVertex(v)); got != 4 {
			t.Errorf("ProperEdgesOfVertex = %d, want 4", got)
		}
	}
}

func TestStructureIsomorphismViaRelational(t *testing.T) {
	// Sanity-check that relational.Isomorphic on exported structures agrees
	// with the invariant-level check for a small pair.
	a := MustCompute(instOf(t, map[string]region.Region{"P": region.Annulus(0, 0, 10, 10, 3)}))
	b := MustCompute(instOf(t, map[string]region.Region{"P": region.Annulus(50, 50, 90, 90, 7)}))
	if !relational.Isomorphic(a.ToStructure(), b.ToStructure()) {
		t.Error("structures of homeomorphic annuli should be isomorphic")
	}
	c := MustCompute(instOf(t, map[string]region.Region{"P": region.Rect(0, 0, 4, 4)}))
	if relational.Isomorphic(a.ToStructure(), c.ToStructure()) {
		t.Error("annulus and disk should not be isomorphic")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	inv := MustCompute(instOf(t, map[string]region.Region{"P": region.Rect(0, 0, 4, 4)}))
	if err := inv.Validate(); err != nil {
		t.Fatalf("valid invariant rejected: %v", err)
	}
	// Corrupt: point an edge at a non-existent face.
	bad := MustCompute(instOf(t, map[string]region.Region{"P": region.Rect(0, 0, 4, 4)}))
	bad.Edges[0].Faces = []int{99}
	if err := bad.Validate(); err == nil {
		t.Error("corrupted invariant accepted")
	}
	// Corrupt: two exterior faces.
	bad2 := MustCompute(instOf(t, map[string]region.Region{"P": region.Rect(0, 0, 4, 4)}))
	for _, f := range bad2.Faces {
		f.Exterior = true
	}
	if err := bad2.Validate(); err == nil {
		t.Error("two exterior faces accepted")
	}
}
