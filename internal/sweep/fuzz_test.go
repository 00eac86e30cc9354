package sweep_test

import (
	"encoding/binary"
	"testing"

	"repro/internal/geom"
	"repro/internal/sweep"
)

// Fuzz inputs decode as a stream of int8 coordinate pairs on a small grid —
// small coordinates maximise the degeneracy rate (shared points, collinear
// triples, vertical edges), which is where sweep implementations break.  A
// leading byte splits the stream into an outer ring and holes.

// decodeRings turns fuzz bytes into an outer ring plus holes.  Returns
// ok=false when the bytes cannot make even one 3-vertex ring.
func decodeRings(data []byte) (outer geom.Polygon, holes []geom.Polygon, ok bool) {
	if len(data) < 1+6 {
		return geom.Polygon{}, nil, false
	}
	nHoles := int(data[0] % 4)
	rest := data[1:]
	var pts []geom.Point
	for i := 0; i+1 < len(rest); i += 2 {
		pts = append(pts, geom.Pt(int64(int8(rest[i]))%16, int64(int8(rest[i+1]))%16))
	}
	if len(pts) < 3 {
		return geom.Polygon{}, nil, false
	}
	// Slice the points into 1+nHoles rings of roughly equal size.
	rings := make([][]geom.Point, 0, 1+nHoles)
	per := len(pts) / (1 + nHoles)
	if per < 3 {
		per = len(pts)
		nHoles = 0
	}
	for r := 0; r <= nHoles; r++ {
		lo := r * per
		hi := lo + per
		if r == nHoles {
			hi = len(pts)
		}
		if hi-lo >= 3 {
			rings = append(rings, pts[lo:hi])
		}
	}
	if len(rings) == 0 {
		return geom.Polygon{}, nil, false
	}
	outer = geom.Polygon{Vertices: rings[0]}
	for _, r := range rings[1:] {
		holes = append(holes, geom.Polygon{Vertices: r})
	}
	return outer, holes, true
}

// encodeRings is the seeding inverse of decodeRings for an outer ring and up
// to three holes, all with the same vertex count (decodeRings splits the
// points evenly).  Workload coordinates are clipped onto the fuzz grid; the
// seeds only need to carry the shapes' structure, not their exact
// embedding.
func encodeRings(rings ...geom.Polygon) []byte {
	out := []byte{byte(len(rings) - 1)}
	for _, pg := range rings {
		for _, v := range pg.Vertices {
			out = append(out, byte(int8(v.X.Float())), byte(int8(v.Y.Float())))
		}
	}
	return out
}

// FuzzSweepVsQuadratic is the sweep's differential harness: every input is
// checked two ways against the brute-force reference — ValidateAreaSweep vs
// ValidateAreaQuadratic (which tests ring simplicity with
// geom.Polygon.IsSimple) on the ring-plus-holes split, and the full
// Intersections pair set, with each pair's exact intersection point or
// overlap, vs the all-pairs scan — and any mismatch fails.  Seeds cover all
// five workload generators plus hand-built degenerate rings (vertical
// edges, collinear spikes, bowties) and ring sets whose edges meet at
// multi-segment points.
func FuzzSweepVsQuadratic(f *testing.F) {
	// Workload-derived seeds: real cartographic ring shapes.
	for _, inst := range workloadInstances(f) {
		for _, name := range inst.SortedNames() {
			reg := inst.Region(name)
			for _, feat := range reg.Features {
				if len(feat.Outer.Vertices) >= 3 && len(feat.Outer.Vertices) <= 48 {
					f.Add(encodeRings(feat.Outer))
				}
			}
		}
	}
	// Hand-built degenerates.
	hand := []geom.Polygon{
		geom.Rect(0, 0, 8, 8), // vertical edges
		{Vertices: []geom.Point{geom.Pt(0, 0), geom.Pt(4, 4), geom.Pt(4, 0), geom.Pt(0, 4)}},                // bowtie
		{Vertices: []geom.Point{geom.Pt(0, 0), geom.Pt(8, 0), geom.Pt(4, 0), geom.Pt(4, 6)}},                // collinear spike
		{Vertices: []geom.Point{geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 4), geom.Pt(2, 0), geom.Pt(0, 4)}}, // edge through vertex
		geom.MustPolygon(geom.Pt(0, 0), geom.Pt(2, 0), geom.Pt(4, 0), geom.Pt(4, 4), geom.Pt(0, 4)),         // collinear but simple
	}
	for _, pg := range hand {
		f.Add(encodeRings(pg))
	}
	// An annulus with the hole bytes appended (exercises the hole split).
	annulus := []byte{1}
	for _, v := range [][2]int8{{0, 0}, {12, 0}, {12, 12}, {0, 12}, {4, 4}, {8, 4}, {8, 8}, {4, 8}} {
		annulus = append(annulus, byte(v[0]), byte(v[1]))
	}
	f.Add(annulus)
	// Raw entropy seed.
	var raw [16]byte
	binary.LittleEndian.PutUint64(raw[:8], 0x0123456789abcdef)
	f.Add(raw[:])
	// Ring sets: three triangles meeting at (4, 4), six edges there; a hole
	// whose two collinear edges overlap the outer ring's bottom edge and
	// meet at a vertex inside it; and a vertical edge through (4, 4), where
	// two rings touch with four edges.
	tri := func(a, b, c geom.Point) geom.Polygon { return geom.Polygon{Vertices: []geom.Point{a, b, c}} }
	quad := func(a, b, c, d geom.Point) geom.Polygon { return geom.Polygon{Vertices: []geom.Point{a, b, c, d}} }
	f.Add(encodeRings(
		tri(geom.Pt(4, 4), geom.Pt(8, 4), geom.Pt(8, 6)),
		tri(geom.Pt(4, 4), geom.Pt(4, 8), geom.Pt(2, 8)),
		tri(geom.Pt(4, 4), geom.Pt(0, 2), geom.Pt(2, 0))))
	f.Add(encodeRings(geom.Rect(0, 0, 8, 8), quad(geom.Pt(2, 0), geom.Pt(4, 0), geom.Pt(6, 0), geom.Pt(4, 3))))
	f.Add(encodeRings(
		quad(geom.Pt(0, 0), geom.Pt(4, 4), geom.Pt(0, 8), geom.Pt(-2, 4)),
		quad(geom.Pt(4, 4), geom.Pt(8, 0), geom.Pt(10, 4), geom.Pt(8, 8)),
		geom.Rect(4, 1, 5, 7)))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			// The quadratic reference is O(n²); keep the loop fast.
			t.Skip()
		}
		outer, holes, ok := decodeRings(data)
		if !ok {
			return
		}

		// 1. Area validation differential (verdict equivalence; the first
		// error found may differ, acceptance must not).
		serr := sweep.ValidateAreaSweep(outer, holes)
		qerr := sweep.ValidateAreaQuadratic(outer, holes)
		if (serr == nil) != (qerr == nil) {
			t.Fatalf("ValidateAreaSweep = %v, ValidateAreaQuadratic = %v on outer %v holes %v",
				serr, qerr, outer.Vertices, holes)
		}

		// 2. Full intersection-set differential over the raw segments.
		segs := outer.Edges()
		for _, h := range holes {
			segs = append(segs, h.Edges()...)
		}
		want := pairSet(quadraticPairs(segs))
		got := pairSet(sweep.Intersections(segs))
		if len(got) != len(want) {
			t.Fatalf("sweep found %d pairs, quadratic %d (segs %v)", len(got), len(want), segs)
		}
		for k, x := range want {
			if g, ok := got[k]; !ok || !sameIntersection(g, x) {
				t.Fatalf("pair %v: sweep %+v (present=%v), quadratic %+v (segs %v)", k, g, ok, x, segs)
			}
		}
	})
}
