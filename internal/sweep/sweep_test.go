package sweep_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/spatial"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// quadraticPairs is the brute-force reference for Intersections.
func quadraticPairs(segs []geom.Segment) []sweep.Pair {
	var out []sweep.Pair
	for i := 0; i < len(segs); i++ {
		if segs[i].A.Equal(segs[i].B) {
			continue
		}
		for j := i + 1; j < len(segs); j++ {
			if segs[j].A.Equal(segs[j].B) {
				continue
			}
			if x := geom.SegmentIntersection(segs[i], segs[j]); x.Kind != geom.NoIntersection {
				out = append(out, sweep.Pair{I: i, J: j, X: x})
			}
		}
	}
	return out
}

func pairSet(ps []sweep.Pair) map[[2]int]geom.Intersection {
	m := map[[2]int]geom.Intersection{}
	for _, p := range ps {
		m[[2]int{p.I, p.J}] = p.X
	}
	return m
}

// sameIntersection reports whether two intersections are equal: the same
// kind with the same point, or with the same overlap endpoints.
func sameIntersection(a, b geom.Intersection) bool {
	switch {
	case a.Kind != b.Kind:
		return false
	case a.Kind == geom.PointIntersection:
		return a.P.Equal(b.P)
	case a.Kind == geom.OverlapIntersection:
		return a.OverlapA.Equal(b.OverlapA) && a.OverlapB.Equal(b.OverlapB)
	}
	return true
}

// checkAgainstQuadratic asserts the sweep reports exactly the pairs, each
// with its exact intersection, that the brute-force scan finds.
func checkAgainstQuadratic(t *testing.T, name string, segs []geom.Segment) {
	t.Helper()
	want := pairSet(quadraticPairs(segs))
	got := pairSet(sweep.Intersections(segs))
	if len(want) != len(got) {
		t.Errorf("%s: sweep found %d pairs, quadratic %d", name, len(got), len(want))
	}
	for k, x := range want {
		g, ok := got[k]
		if !ok {
			t.Errorf("%s: sweep missed pair %v (%+v)", name, k, x)
			continue
		}
		if !sameIntersection(g, x) {
			t.Errorf("%s: pair %v intersection %+v, quadratic says %+v", name, k, g, x)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: sweep invented pair %v", name, k)
		}
	}
}

func seg(x1, y1, x2, y2 int64) geom.Segment {
	return geom.Segment{A: geom.Pt(x1, y1), B: geom.Pt(x2, y2)}
}

func TestSweepDegenerateCases(t *testing.T) {
	cases := []struct {
		name string
		segs []geom.Segment
	}{
		{"disjoint", []geom.Segment{seg(0, 0, 2, 2), seg(3, 0, 5, 1)}},
		{"simple crossing", []geom.Segment{seg(0, 0, 4, 4), seg(0, 4, 4, 0)}},
		{"shared endpoint", []geom.Segment{seg(0, 0, 4, 4), seg(4, 4, 8, 0)}},
		{"shared left endpoint fan", []geom.Segment{seg(0, 0, 4, 4), seg(0, 0, 4, 0), seg(0, 0, 4, -4), seg(0, 0, 0, 4)}},
		{"t-junction", []geom.Segment{seg(0, 0, 8, 0), seg(4, -4, 4, 0)}},
		{"endpoint on interior", []geom.Segment{seg(0, 0, 8, 0), seg(4, 0, 6, 5)}},
		{"vertical crossing", []geom.Segment{seg(2, -3, 2, 3), seg(0, 0, 4, 1)}},
		{"vertical touch at endpoint", []geom.Segment{seg(2, 0, 2, 4), seg(0, 0, 2, 0)}},
		{"vertical overlap", []geom.Segment{seg(2, 0, 2, 4), seg(2, 2, 2, 8)}},
		{"vertical stack touching", []geom.Segment{seg(2, 0, 2, 4), seg(2, 4, 2, 8)}},
		{"vertical disjoint same x", []geom.Segment{seg(2, 0, 2, 2), seg(2, 5, 2, 8)}},
		{"two verticals crossed by one", []geom.Segment{seg(1, -2, 1, 2), seg(3, -2, 3, 2), seg(0, 0, 4, 0)}},
		{"vertical through many", []geom.Segment{seg(2, -9, 2, 9), seg(0, 0, 4, 0), seg(0, 2, 4, 2), seg(0, 6, 4, 5), seg(1, -1, 3, -5)}},
		{"collinear overlap", []geom.Segment{seg(0, 0, 4, 0), seg(2, 0, 8, 0)}},
		{"collinear containment", []geom.Segment{seg(0, 0, 8, 0), seg(2, 0, 4, 0)}},
		{"collinear touch", []geom.Segment{seg(0, 0, 4, 0), seg(4, 0, 8, 0)}},
		{"collinear disjoint", []geom.Segment{seg(0, 0, 2, 0), seg(4, 0, 8, 0)}},
		{"three collinear overlapping", []geom.Segment{seg(0, 0, 6, 0), seg(2, 0, 8, 0), seg(4, 0, 10, 0)}},
		{"identical twins", []geom.Segment{seg(0, 0, 4, 4), seg(0, 0, 4, 4)}},
		{"multi-segment event point", []geom.Segment{seg(0, 0, 8, 8), seg(0, 8, 8, 0), seg(0, 4, 8, 4), seg(4, 0, 4, 8), seg(2, 4, 9, 4)}},
		{"crossing after shared start", []geom.Segment{seg(0, 0, 8, 4), seg(0, 0, 8, 2), seg(6, 0, 6, 8)}},
		{"zero-length ignored", []geom.Segment{seg(1, 1, 1, 1), seg(0, 0, 2, 2)}},
		{"steep and shallow through one point", []geom.Segment{seg(3, -5, 5, 5), seg(0, 0, 8, 0), seg(4, -1, 4, 1)}},
		{"grid", []geom.Segment{
			seg(0, 1, 6, 1), seg(0, 3, 6, 3), seg(0, 5, 6, 5),
			seg(1, 0, 1, 6), seg(3, 0, 3, 6), seg(5, 0, 5, 6),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkAgainstQuadratic(t, tc.name, tc.segs)
		})
	}
}

// TestSweepEarlyExit: the visitor stopping must end the sweep after exactly
// one report.
func TestSweepEarlyExit(t *testing.T) {
	segs := []geom.Segment{seg(0, 0, 4, 4), seg(0, 4, 4, 0), seg(0, 2, 4, 2)}
	calls := 0
	sweep.Run(segs, func(sweep.Pair) bool { calls++; return false })
	if calls != 1 {
		t.Errorf("early exit: visitor called %d times, want 1", calls)
	}
}

// workloadInstances returns all five workload generators' instances — the
// realistic cartographic degeneracy sources (shared parcel borders, junction
// vertices, jagged lake shores).
func workloadInstances(t testing.TB) map[string]*spatial.Instance {
	t.Helper()
	out := map[string]*spatial.Instance{}
	var err error
	if out["landuse"], err = workload.LandUse(workload.DefaultLandUse(1)); err != nil {
		t.Fatal(err)
	}
	if out["hydrography"], err = workload.Hydrography(workload.DefaultHydrography(1)); err != nil {
		t.Fatal(err)
	}
	if out["commune"], err = workload.Commune(workload.DefaultCommune(1)); err != nil {
		t.Fatal(err)
	}
	if out["nested"], err = workload.NestedRegions(3); err != nil {
		t.Fatal(err)
	}
	if out["multicomponent"], err = workload.MultiComponent(4); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSweepWorkloadBoundaries runs the sweep over the boundary segments of
// every workload generator and compares against the quadratic scan.
func TestSweepWorkloadBoundaries(t *testing.T) {
	for name, inst := range workloadInstances(t) {
		var segs []geom.Segment
		for _, n := range inst.SortedNames() {
			segs = append(segs, inst.Region(n).BoundarySegments()...)
		}
		if len(segs) > 1200 {
			segs = segs[:1200] // keep the quadratic reference fast
		}
		checkAgainstQuadratic(t, name, segs)
	}
}

// TestRingSimpleMatchesIsSimple spot-checks the sweep's ring-simplicity
// verdict against geom.Polygon.IsSimple on hole-free rings (the fuzz target
// covers the long tail).
func TestRingSimpleMatchesIsSimple(t *testing.T) {
	rings := map[string]geom.Polygon{
		"square":          geom.Rect(0, 0, 4, 4),
		"triangle":        geom.MustPolygon(geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(2, 3)),
		"bowtie":          {Vertices: []geom.Point{geom.Pt(0, 0), geom.Pt(4, 4), geom.Pt(4, 0), geom.Pt(0, 4)}},
		"collinear edge":  geom.MustPolygon(geom.Pt(0, 0), geom.Pt(2, 0), geom.Pt(4, 0), geom.Pt(4, 4)),
		"spike":           {Vertices: []geom.Point{geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(2, 0), geom.Pt(2, 3)}},
		"pinch at vertex": {Vertices: []geom.Point{geom.Pt(0, 0), geom.Pt(2, 2), geom.Pt(4, 0), geom.Pt(4, 4), geom.Pt(2, 2), geom.Pt(0, 4)}},
		"vertical zigzag": geom.MustPolygon(geom.Pt(0, 0), geom.Pt(2, 0), geom.Pt(2, 2), geom.Pt(4, 2), geom.Pt(4, 4), geom.Pt(0, 4)),
		"self-touch edge": {Vertices: []geom.Point{geom.Pt(0, 0), geom.Pt(8, 0), geom.Pt(8, 4), geom.Pt(4, 0), geom.Pt(0, 4)}},
	}
	for name, pg := range rings {
		want := pg.IsSimple()
		err := sweep.ValidateAreaSweep(pg, nil)
		if got := err == nil; got != want {
			t.Errorf("%s: sweep accepts = %v, IsSimple = %v (err %v)", name, got, want, err)
		}
		if err != nil && !strings.Contains(err.Error(), "not a simple polygon") {
			t.Errorf("%s: error %q is not a simplicity verdict", name, err)
		}
	}
}

func TestValidateAreaVerdicts(t *testing.T) {
	rect := geom.Rect
	cases := []struct {
		name  string
		outer geom.Polygon
		holes []geom.Polygon
		want  string // "" = valid; otherwise substring of the error
	}{
		{"no holes", rect(0, 0, 10, 10), nil, ""},
		{"one hole", rect(0, 0, 10, 10), []geom.Polygon{rect(3, 3, 6, 6)}, ""},
		{"two holes", rect(0, 0, 10, 10), []geom.Polygon{rect(1, 1, 4, 4), rect(6, 6, 9, 9)}, ""},
		{"bowtie outer", geom.Polygon{Vertices: []geom.Point{geom.Pt(0, 0), geom.Pt(4, 4), geom.Pt(4, 0), geom.Pt(0, 4)}}, nil, "outer boundary is not a simple polygon"},
		{"bowtie hole", rect(0, 0, 10, 10), []geom.Polygon{{Vertices: []geom.Point{geom.Pt(2, 2), geom.Pt(4, 4), geom.Pt(4, 2), geom.Pt(2, 4)}}}, "hole 0 is not a simple polygon"},
		{"hole outside", rect(0, 0, 4, 4), []geom.Polygon{rect(6, 6, 8, 8)}, "not strictly inside the outer boundary"},
		{"hole crosses outer", rect(0, 0, 4, 4), []geom.Polygon{rect(2, 2, 8, 3)}, "crosses the outer ring"},
		{"hole touches outer at vertex", rect(0, 0, 8, 8), []geom.Polygon{geom.MustPolygon(geom.Pt(0, 0), geom.Pt(3, 1), geom.Pt(1, 3))}, "touches the outer ring"},
		{"hole edge along outer", rect(0, 0, 8, 8), []geom.Polygon{rect(0, 2, 3, 5)}, "outer ring"},
		{"holes overlap", rect(0, 0, 20, 20), []geom.Polygon{rect(2, 2, 8, 8), rect(5, 5, 12, 12)}, "overlaps hole"},
		{"holes touch at point", rect(0, 0, 20, 20), []geom.Polygon{rect(2, 2, 8, 8), geom.MustPolygon(geom.Pt(8, 8), geom.Pt(12, 9), geom.Pt(9, 12))}, "touches hole"},
		{"nested holes", rect(0, 0, 20, 20), []geom.Polygon{rect(2, 2, 12, 12), rect(5, 5, 8, 8)}, "nested inside hole"},
		{"hole escapes concave notch", geom.MustPolygon(
			geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 10), geom.Pt(8, 10),
			geom.Pt(8, 2), geom.Pt(2, 2), geom.Pt(2, 10), geom.Pt(0, 10),
		), []geom.Polygon{rect(1, 5, 9, 6)}, "crosses the outer ring"},
		{"tiny ring", geom.Polygon{Vertices: []geom.Point{geom.Pt(0, 0), geom.Pt(1, 1)}}, nil, "need at least 3"},
		{"repeated vertex", geom.Polygon{Vertices: []geom.Point{geom.Pt(0, 0), geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 4)}}, nil, "repeats consecutive vertex"},
	}
	impls := map[string]func(geom.Polygon, []geom.Polygon) error{
		"sweep":     sweep.ValidateAreaSweep,
		"quadratic": sweep.ValidateAreaQuadratic,
	}
	for _, tc := range cases {
		for impl, validate := range impls {
			t.Run(tc.name+"/"+impl, func(t *testing.T) {
				err := validate(tc.outer, tc.holes)
				if tc.want == "" {
					if err != nil {
						t.Fatalf("valid input rejected: %v", err)
					}
					return
				}
				if err == nil {
					t.Fatal("invalid input accepted")
				}
				if !strings.Contains(err.Error(), tc.want) {
					t.Errorf("error %q does not mention %q", err, tc.want)
				}
			})
		}
	}
}

// TestValidateAreaManyHoles: parity-based containment with a grid of holes
// (valid) and the same grid with one hole nested inside another (invalid) —
// large enough that ValidateArea takes the sweep path.
func TestValidateAreaManyHoles(t *testing.T) {
	outer := geom.Rect(0, 0, 1000, 1000)
	var holes []geom.Polygon
	for i := int64(0); i < 8; i++ {
		for j := int64(0); j < 8; j++ {
			holes = append(holes, geom.Rect(10+i*120, 10+j*120, 80+i*120, 80+j*120))
		}
	}
	if err := sweep.ValidateArea(outer, holes); err != nil {
		t.Fatalf("valid hole grid rejected: %v", err)
	}
	bad := append(append([]geom.Polygon{}, holes...), geom.Rect(20, 20, 40, 40))
	if err := sweep.ValidateAreaSweep(outer, bad); err == nil || !strings.Contains(err.Error(), "nested") {
		t.Fatalf("nested hole accepted by sweep: %v", err)
	}
	if err := sweep.ValidateAreaQuadratic(outer, bad); err == nil {
		t.Fatal("quadratic accepted nested hole")
	}
}

// TestSweepLargeRing pins the tentpole claim at full acceptance size: a
// 50k-vertex sawtooth ring validates via the sweep (the quadratic checker
// needs minutes at this size; the whole test runs in well under a second).
func TestSweepLargeRing(t *testing.T) {
	if testing.Short() {
		t.Skip("large ring in -short mode")
	}
	pg := sawtoothRing(50000)
	if err := sweep.ValidateAreaSweep(pg, nil); err != nil {
		t.Fatalf("sawtooth ring rejected: %v", err)
	}
}

// sawtoothRing builds a simple closed ring with n vertices: a jagged
// sawtooth top (alternating heights, steep and shallow edges interleaved)
// closed by a long base edge.
func sawtoothRing(n int) geom.Polygon {
	teeth := n - 2
	pts := make([]geom.Point, 0, teeth+2)
	pts = append(pts, geom.Pt(-1, 0))
	for i := 0; i < teeth; i++ {
		pts = append(pts, geom.Pt(int64(i), 10+10*int64(i%2)))
	}
	pts = append(pts, geom.Pt(int64(teeth), 0))
	return geom.Polygon{Vertices: pts}
}

func TestSweepDeterministic(t *testing.T) {
	segs := []geom.Segment{seg(0, 0, 8, 8), seg(0, 8, 8, 0), seg(0, 4, 8, 4), seg(4, 0, 4, 8)}
	a := fmt.Sprint(sortedPairs(sweep.Intersections(segs)))
	b := fmt.Sprint(sortedPairs(sweep.Intersections(segs)))
	if a != b {
		t.Error("sweep output is not deterministic")
	}
}

func sortedPairs(ps []sweep.Pair) [][2]int {
	out := make([][2]int, 0, len(ps))
	for _, p := range ps {
		out = append(out, [2]int{p.I, p.J})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}
