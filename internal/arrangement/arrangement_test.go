package arrangement

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/region"
	"repro/internal/spatial"
)

func buildOne(t *testing.T, name string, r region.Region) *Complex {
	t.Helper()
	return buildMany(t, map[string]region.Region{name: r})
}

func buildMany(t *testing.T, regs map[string]region.Region) *Complex {
	t.Helper()
	cx, err := Build(instanceOf(regs))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return cx
}

func instanceOf(regs map[string]region.Region) *spatial.Instance {
	names := make([]string, 0, len(regs))
	for n := range regs {
		names = append(names, n)
	}
	return spatial.MustBuild(spatial.MustSchema(names...), regs)
}

// verticesByPoint maps each vertex's point key to its ID.
func verticesByPoint(cx *Complex) map[geom.PointKey]int {
	out := make(map[geom.PointKey]int, len(cx.Vertices))
	for _, v := range cx.Vertices {
		out[v.Point.Key()] = v.ID
	}
	return out
}

func countFreeLoops(cx *Complex) int {
	n := 0
	for _, e := range cx.Edges {
		if e.IsFreeLoop() {
			n++
		}
	}
	return n
}

func TestSingleRectangle(t *testing.T) {
	cx := buildOne(t, "P", region.Rect(0, 0, 4, 4))
	// A filled rectangle is topologically a disk: its maximum cell
	// decomposition has no vertices, one free-loop boundary edge, the
	// interior face and the exterior face.
	if len(cx.Vertices) != 0 {
		t.Errorf("vertices = %d, want 0", len(cx.Vertices))
	}
	if len(cx.Edges) != 1 || countFreeLoops(cx) != 1 {
		t.Fatalf("edges = %d (free loops %d), want 1 free loop", len(cx.Edges), countFreeLoops(cx))
	}
	if len(cx.Faces) != 2 {
		t.Fatalf("faces = %d, want 2", len(cx.Faces))
	}
	// Signs.
	if signIn(cx, cx.Edges[0].Sign, "P") != Boundary {
		t.Errorf("edge sign = %v, want boundary", signIn(cx, cx.Edges[0].Sign, "P"))
	}
	var interiorFaces, exteriorFaces int
	for _, f := range cx.Faces {
		switch signIn(cx, f.Sign, "P") {
		case Interior:
			interiorFaces++
			if f.Exterior {
				t.Error("exterior face classified interior")
			}
		case Exterior:
			exteriorFaces++
		}
	}
	if interiorFaces != 1 || exteriorFaces != 1 {
		t.Errorf("interior faces %d exterior faces %d, want 1/1", interiorFaces, exteriorFaces)
	}
	ext := cx.Faces[cx.ExteriorFace]
	if !ext.Exterior || signIn(cx, ext.Sign, "P") != Exterior {
		t.Error("exterior face wrong")
	}
	// The boundary edge is incident to both faces.
	if len(cx.Edges[0].Faces) != 2 {
		t.Errorf("edge incident faces = %v, want 2", cx.Edges[0].Faces)
	}
}

func TestTwoDisjointSquaresOneRegion(t *testing.T) {
	r := region.Must(
		region.AreaFeature(geom.Rect(0, 0, 2, 2)),
		region.AreaFeature(geom.Rect(5, 5, 7, 7)),
	)
	cx := buildOne(t, "P", r)
	if len(cx.Vertices) != 0 || len(cx.Edges) != 2 || len(cx.Faces) != 3 {
		t.Errorf("got V=%d E=%d F=%d, want 0/2/3", len(cx.Vertices), len(cx.Edges), len(cx.Faces))
	}
	if countFreeLoops(cx) != 2 {
		t.Errorf("free loops = %d, want 2", countFreeLoops(cx))
	}
}

func TestAnnulus(t *testing.T) {
	cx := buildOne(t, "P", region.Annulus(0, 0, 10, 10, 3))
	// Annulus: two free-loop edges, three faces (hole, ring, exterior).
	if len(cx.Vertices) != 0 || len(cx.Edges) != 2 || len(cx.Faces) != 3 {
		t.Fatalf("got V=%d E=%d F=%d, want 0/2/3", len(cx.Vertices), len(cx.Edges), len(cx.Faces))
	}
	interior, exterior := 0, 0
	for _, f := range cx.Faces {
		if signIn(cx, f.Sign, "P") == Interior {
			interior++
		} else {
			exterior++
		}
	}
	// Only the ring is interior; both the hole and the unbounded face are
	// exterior to P.
	if interior != 1 || exterior != 2 {
		t.Errorf("interior=%d exterior=%d, want 1/2", interior, exterior)
	}
}

func TestAdjacentSquaresSameRegionMerge(t *testing.T) {
	// Two squares sharing an edge, both features of the same region: the
	// union is a plain rectangle, so the shared segment must disappear from
	// the decomposition.
	r := region.Must(
		region.AreaFeature(geom.Rect(0, 0, 2, 2)),
		region.AreaFeature(geom.Rect(2, 0, 4, 2)),
	)
	cx := buildOne(t, "P", r)
	if len(cx.Vertices) != 0 || len(cx.Edges) != 1 || len(cx.Faces) != 2 {
		t.Errorf("got V=%d E=%d F=%d, want 0/1/2 (same as a plain rectangle)", len(cx.Vertices), len(cx.Edges), len(cx.Faces))
	}
}

func TestTwoOverlappingRectanglesTwoRegions(t *testing.T) {
	cx := buildMany(t, map[string]region.Region{
		"P": region.Rect(0, 0, 4, 4),
		"Q": region.Rect(2, 2, 6, 6),
	})
	// Boundaries cross at (4,2) and (2,4): 2 vertices, 4 edges, 4 faces.
	if len(cx.Vertices) != 2 {
		t.Fatalf("vertices = %d, want 2", len(cx.Vertices))
	}
	if len(cx.Edges) != 4 {
		t.Fatalf("edges = %d, want 4", len(cx.Edges))
	}
	if len(cx.Faces) != 4 {
		t.Fatalf("faces = %d, want 4", len(cx.Faces))
	}
	byPt := verticesByPoint(cx)
	if _, ok := byPt[geom.Pt(4, 2).Key()]; !ok {
		t.Error("missing vertex at (4,2)")
	}
	if _, ok := byPt[geom.Pt(2, 4).Key()]; !ok {
		t.Error("missing vertex at (2,4)")
	}
	// Each crossing vertex has degree 4 and its cone alternates 4 edges and
	// 4 faces.
	for _, v := range cx.Vertices {
		if v.Degree() != 4 {
			t.Errorf("vertex %v degree = %d, want 4", v.Point, v.Degree())
		}
		if len(v.Cone) != 8 {
			t.Errorf("vertex %v cone length = %d, want 8", v.Point, len(v.Cone))
		}
		for i, c := range v.Cone {
			wantKind := EdgeCell
			if i%2 == 1 {
				wantKind = FaceCell
			}
			if c.Kind != wantKind {
				t.Errorf("cone entry %d kind = %v, want %v", i, c.Kind, wantKind)
			}
		}
	}
	// Face sign classes: exactly one face interior to both regions.
	both := 0
	for _, f := range cx.Faces {
		if signIn(cx, f.Sign, "P") == Interior && signIn(cx, f.Sign, "Q") == Interior {
			both++
		}
	}
	if both != 1 {
		t.Errorf("faces interior to both = %d, want 1", both)
	}
	// Vertex sign: the crossing points are on both boundaries.
	for _, v := range cx.Vertices {
		if signIn(cx, v.Sign, "P") != Boundary || signIn(cx, v.Sign, "Q") != Boundary {
			t.Errorf("vertex %v signs = %v, want boundary/boundary", v.Point, v.Sign)
		}
	}
}

func TestIsolatedPointFeatures(t *testing.T) {
	// A point inside P's interior is not topologically significant; a point
	// outside is.
	r := region.Must(
		region.AreaFeature(geom.Rect(0, 0, 4, 4)),
		region.PointFeature(geom.Pt(2, 2)), // inside its own interior: vanishes
		region.PointFeature(geom.Pt(10, 10)),
	)
	cx := buildOne(t, "P", r)
	if len(cx.Vertices) != 1 {
		t.Fatalf("vertices = %d, want 1", len(cx.Vertices))
	}
	v := cx.Vertices[0]
	if !v.Point.Equal(geom.Pt(10, 10)) || !v.Isolated {
		t.Errorf("kept vertex = %+v, want isolated (10,10)", v)
	}
	if signIn(cx, v.Sign, "P") != Boundary {
		t.Errorf("isolated point sign = %v, want boundary", signIn(cx, v.Sign, "P"))
	}
	if v.Face != cx.ExteriorFace {
		t.Errorf("isolated point face = %d, want exterior %d", v.Face, cx.ExteriorFace)
	}
	// It must be recorded as adjacent to (and isolated in) the exterior face.
	ext := cx.Faces[cx.ExteriorFace]
	if len(ext.IsolatedVertices) != 1 || ext.IsolatedVertices[0] != v.ID {
		t.Errorf("exterior face isolated vertices = %v", ext.IsolatedVertices)
	}
}

func TestPointOfOtherRegionOnBoundary(t *testing.T) {
	// A point of region Q sitting on P's boundary is significant: it splits
	// P's boundary circle into a loop at that vertex.
	cx := buildMany(t, map[string]region.Region{
		"P": region.Rect(0, 0, 4, 4),
		"Q": region.FromPoint(geom.Pt(2, 0)),
	})
	if len(cx.Vertices) != 1 {
		t.Fatalf("vertices = %d, want 1", len(cx.Vertices))
	}
	v := cx.Vertices[0]
	if !v.Point.Equal(geom.Pt(2, 0)) {
		t.Errorf("vertex at %v, want (2,0)", v.Point)
	}
	if signIn(cx, v.Sign, "P") != Boundary || signIn(cx, v.Sign, "Q") != Boundary {
		t.Errorf("vertex sign = %v", v.Sign)
	}
	if len(cx.Edges) != 1 || !cx.Edges[0].IsLoop() {
		t.Errorf("expected a single loop edge, got %d edges (loop=%v)", len(cx.Edges), cx.Edges[0].IsLoop())
	}
	if len(cx.Faces) != 2 {
		t.Errorf("faces = %d, want 2", len(cx.Faces))
	}
}

func TestPolylineCrossingRectangle(t *testing.T) {
	// A horizontal line crossing a square: the line endpoints are degree-1
	// vertices, the two crossing points are degree-4 (two square boundary
	// arcs plus two line pieces), and the line splits the square interior
	// into two faces.
	cx := buildMany(t, map[string]region.Region{
		"P": region.Rect(0, 0, 4, 4),
		"L": region.FromPolyline(geom.MustPolyline(geom.Pt(-2, 2), geom.Pt(6, 2))),
	})
	if len(cx.Vertices) != 4 {
		t.Fatalf("vertices = %d, want 4", len(cx.Vertices))
	}
	degrees := map[int]int{}
	for _, v := range cx.Vertices {
		degrees[v.Degree()]++
	}
	if degrees[1] != 2 || degrees[4] != 2 {
		t.Errorf("degree distribution = %v, want two of degree 1 and two of degree 4", degrees)
	}
	// Faces: upper half of square, lower half, exterior.
	if len(cx.Faces) != 3 {
		t.Errorf("faces = %d, want 3", len(cx.Faces))
	}
	// Edges: 2 dangling line pieces outside, 1 line piece inside,
	// 2 arcs of the square boundary = 5.
	if len(cx.Edges) != 5 {
		t.Errorf("edges = %d, want 5", len(cx.Edges))
	}
	// The inside line piece is interior to P and boundary of L.
	foundInsideLine := false
	for _, e := range cx.Edges {
		if signIn(cx, e.Sign, "P") == Interior && signIn(cx, e.Sign, "L") == Boundary {
			foundInsideLine = true
		}
	}
	if !foundInsideLine {
		t.Error("missing edge classified interior(P) & boundary(L)")
	}
}

func TestAntennaInsideFace(t *testing.T) {
	// A dangling polyline of region L strictly inside the exterior of P:
	// a tree component traced as a single zero-area cycle inside the
	// exterior face.
	cx := buildMany(t, map[string]region.Region{
		"P": region.Rect(0, 0, 2, 2),
		"L": region.FromPolyline(geom.MustPolyline(geom.Pt(5, 5), geom.Pt(7, 5), geom.Pt(7, 7))),
	})
	// Vertices: the polyline's two endpoints (degree 1); the middle bend is
	// removable (degree 2, same signs).
	if len(cx.Vertices) != 2 {
		t.Fatalf("vertices = %d, want 2", len(cx.Vertices))
	}
	for _, v := range cx.Vertices {
		if v.Degree() != 1 {
			t.Errorf("vertex %v degree = %d, want 1", v.Point, v.Degree())
		}
		if len(v.Cone) != 2 {
			t.Errorf("vertex %v cone = %v, want length 2", v.Point, v.Cone)
		}
	}
	// Edges: square free loop + one polyline edge.
	if len(cx.Edges) != 2 {
		t.Errorf("edges = %d, want 2", len(cx.Edges))
	}
	// Faces: square interior + exterior (the antenna does not split a face).
	if len(cx.Faces) != 2 {
		t.Errorf("faces = %d, want 2", len(cx.Faces))
	}
	// The antenna edge has the exterior face on both sides.
	for _, e := range cx.Edges {
		if signIn(cx, e.Sign, "L") == Boundary {
			if len(e.Faces) != 1 || e.Faces[0] != cx.ExteriorFace {
				t.Errorf("antenna edge faces = %v, want only the exterior face", e.Faces)
			}
		}
	}
}

func TestFigureEightSharedVertex(t *testing.T) {
	// Two triangles of the same region sharing exactly one vertex.
	r := region.Must(
		region.AreaFeature(geom.MustPolygon(geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 4))),
		region.AreaFeature(geom.MustPolygon(geom.Pt(4, 4), geom.Pt(8, 4), geom.Pt(8, 8))),
	)
	cx := buildOne(t, "P", r)
	if len(cx.Vertices) != 1 {
		t.Fatalf("vertices = %d, want 1 (the pinch point)", len(cx.Vertices))
	}
	if !cx.Vertices[0].Point.Equal(geom.Pt(4, 4)) {
		t.Errorf("pinch vertex at %v", cx.Vertices[0].Point)
	}
	if cx.Vertices[0].Degree() != 4 {
		t.Errorf("pinch degree = %d, want 4", cx.Vertices[0].Degree())
	}
	// Two loop edges, three faces.
	loops := 0
	for _, e := range cx.Edges {
		if e.IsLoop() {
			loops++
		}
	}
	if len(cx.Edges) != 2 || loops != 2 {
		t.Errorf("edges = %d (loops %d), want 2 loops", len(cx.Edges), loops)
	}
	if len(cx.Faces) != 3 {
		t.Errorf("faces = %d, want 3", len(cx.Faces))
	}
}

func TestNestedSquaresDifferentRegions(t *testing.T) {
	cx := buildMany(t, map[string]region.Region{
		"P": region.Rect(0, 0, 10, 10),
		"Q": region.Rect(3, 3, 6, 6),
	})
	// Boundaries do not meet: 0 vertices, 2 free loops, 3 faces.
	if len(cx.Vertices) != 0 || len(cx.Edges) != 2 || len(cx.Faces) != 3 {
		t.Fatalf("got V=%d E=%d F=%d, want 0/2/3", len(cx.Vertices), len(cx.Edges), len(cx.Faces))
	}
	// The innermost face is interior to both; the middle face only to P.
	counts := map[[2]Sign]int{}
	for _, f := range cx.Faces {
		counts[[2]Sign{signIn(cx, f.Sign, "P"), signIn(cx, f.Sign, "Q")}]++
	}
	if counts[[2]Sign{Interior, Interior}] != 1 ||
		counts[[2]Sign{Interior, Exterior}] != 1 ||
		counts[[2]Sign{Exterior, Exterior}] != 1 {
		t.Errorf("face sign distribution unexpected: %v", counts)
	}
	// Q's boundary edge is interior to P.
	okQ := false
	for _, e := range cx.Edges {
		if signIn(cx, e.Sign, "Q") == Boundary && signIn(cx, e.Sign, "P") == Interior {
			okQ = true
		}
	}
	if !okQ {
		t.Error("Q's boundary should be classified interior to P")
	}
}

func TestEmptyInstance(t *testing.T) {
	sc := spatial.MustSchema("P")
	inst := spatial.NewInstance(sc)
	cx, err := Build(inst)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(cx.Vertices) != 0 || len(cx.Edges) != 0 || len(cx.Faces) != 1 {
		t.Errorf("empty instance: V=%d E=%d F=%d, want 0/0/1", len(cx.Vertices), len(cx.Edges), len(cx.Faces))
	}
	if !cx.Faces[cx.ExteriorFace].Exterior {
		t.Error("single face should be the exterior face")
	}
}

func TestSharedBoundarySegmentTwoRegions(t *testing.T) {
	// Two regions sharing a boundary edge (adjacent land parcels): the shared
	// segment is boundary of both and must stay, with the two crossing-free
	// junction vertices of degree 3.
	cx := buildMany(t, map[string]region.Region{
		"P": region.Rect(0, 0, 2, 2),
		"Q": region.Rect(2, 0, 4, 2),
	})
	if len(cx.Vertices) != 2 {
		t.Fatalf("vertices = %d, want 2", len(cx.Vertices))
	}
	for _, v := range cx.Vertices {
		if v.Degree() != 3 {
			t.Errorf("junction vertex degree = %d, want 3", v.Degree())
		}
	}
	if len(cx.Edges) != 3 {
		t.Errorf("edges = %d, want 3", len(cx.Edges))
	}
	if len(cx.Faces) != 3 {
		t.Errorf("faces = %d, want 3", len(cx.Faces))
	}
	shared := false
	for _, e := range cx.Edges {
		if signIn(cx, e.Sign, "P") == Boundary && signIn(cx, e.Sign, "Q") == Boundary {
			shared = true
		}
	}
	if !shared {
		t.Error("missing shared boundary edge classified boundary of both regions")
	}
}

func TestSweepAndNaivePairFindingAgree(t *testing.T) {
	regs := map[string]region.Region{
		"P": region.Rect(0, 0, 8, 8),
		"Q": region.Rect(4, 4, 12, 12),
		"R": region.FromPolyline(geom.MustPolyline(geom.Pt(-2, 6), geom.Pt(14, 6))),
		"S": region.Annulus(1, 1, 7, 7, 2),
	}
	checkAgainstReference(t, instanceOf(regs))
}

func TestTranslationInvariance(t *testing.T) {
	// Cell counts are a topological invariant: translating / reflecting the
	// instance must not change them.
	base := map[string]region.Region{
		"P": region.Rect(0, 0, 4, 4),
		"Q": region.Rect(2, 2, 6, 6),
		"L": region.FromPolyline(geom.MustPolyline(geom.Pt(-2, 3), geom.Pt(8, 3))),
	}
	a := buildMany(t, base)
	moved := map[string]region.Region{}
	for k, r := range base {
		moved[k] = r.Translate(geomRat(100), geomRat(-37)).ReflectX()
	}
	b := buildMany(t, moved)
	if len(a.Vertices) != len(b.Vertices) || len(a.Edges) != len(b.Edges) || len(a.Faces) != len(b.Faces) {
		t.Errorf("invariance violated: V=%d/%d E=%d/%d F=%d/%d",
			len(a.Vertices), len(b.Vertices), len(a.Edges), len(b.Edges), len(a.Faces), len(b.Faces))
	}
}

func TestStatsPopulated(t *testing.T) {
	cx := buildMany(t, map[string]region.Region{
		"P": region.Rect(0, 0, 4, 4),
		"Q": region.Rect(2, 2, 6, 6),
	})
	st := cx.Stats
	if st.InputSegments == 0 || st.SubSegments == 0 || st.Faces == 0 {
		t.Errorf("stats not populated: %+v", st)
	}
	if st.MaxLinesPerPoint != 4 {
		t.Errorf("max lines per point = %d, want 4", st.MaxLinesPerPoint)
	}
	if st.AvgLinesPerPoint <= 0 {
		t.Errorf("avg lines per point = %f", st.AvgLinesPerPoint)
	}
}

func TestFaceEdgeConsistency(t *testing.T) {
	cx := buildMany(t, map[string]region.Region{
		"P": region.Rect(0, 0, 8, 8),
		"Q": region.Rect(4, 4, 12, 12),
		"R": region.Annulus(20, 20, 30, 30, 3),
	})
	// Every edge's incident faces list that edge, and vice versa.
	for _, e := range cx.Edges {
		for _, fid := range e.Faces {
			if !containsInt(cx.Faces[fid].Edges, e.ID) {
				t.Errorf("face %d missing edge %d", fid, e.ID)
			}
		}
	}
	for _, f := range cx.Faces {
		for _, eid := range f.Edges {
			if !containsInt(cx.Edges[eid].Faces, f.ID) {
				t.Errorf("edge %d missing face %d", eid, f.ID)
			}
		}
	}
	// Every proper edge's endpoints are adjacent to its faces.
	for _, e := range cx.Edges {
		if !e.IsProper() {
			continue
		}
		for _, fid := range e.Faces {
			if !containsInt(cx.Faces[fid].Vertices, e.V1) || !containsInt(cx.Faces[fid].Vertices, e.V2) {
				t.Errorf("face %d missing an endpoint of edge %d", fid, e.ID)
			}
		}
	}
	// Cone entries reference valid edges and faces, and cone edges include
	// the vertex as an endpoint.
	for _, v := range cx.Vertices {
		for _, c := range v.Cone {
			switch {
			case c.Kind == EdgeCell && c.Index >= 0 && c.Index < len(cx.Edges):
				if e := cx.Edges[c.Index]; e.V1 != v.ID && e.V2 != v.ID {
					t.Errorf("vertex %d cone edge %d does not end at it", v.ID, e.ID)
				}
			case c.Kind == FaceCell && c.Index >= 0 && c.Index < len(cx.Faces):
			default:
				t.Errorf("vertex %d cone references invalid cell %v", v.ID, c)
			}
		}
	}
}

func TestEulerFormulaPerComponentInstance(t *testing.T) {
	// For a connected plane multigraph with V vertices (V>0), E edges and F
	// faces, Euler's formula gives V - E + F = 2.
	cx := buildMany(t, map[string]region.Region{
		"P": region.Rect(0, 0, 4, 4),
		"Q": region.Rect(2, 2, 6, 6),
	})
	v, e, f := len(cx.Vertices), len(cx.Edges), len(cx.Faces)
	if v-e+f != 2 {
		t.Errorf("Euler characteristic V-E+F = %d, want 2", v-e+f)
	}
}

func geomRat(n int64) (r ratAlias) { return ratOf(n) }
