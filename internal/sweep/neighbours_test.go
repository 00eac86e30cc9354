package sweep_test

import (
	"maps"
	"testing"

	"repro/internal/geom"
	"repro/internal/rat"
	"repro/internal/sweep"
)

// checkNeighbours is the neighbour-record oracle for Subdivide.  It pins the
// record count — exactly one record per distinct split point of every
// non-vertical segment except its right end, in increasing x, none for
// vertical or zero-length segments — and, for every record, compares the
// sweep's nearest segments strictly above and below against a brute-force
// scan of all input segments at the interval's mid-x.
func checkNeighbours(t *testing.T, segs []geom.Segment, probes []geom.Point) {
	t.Helper()
	sd := sweep.Subdivide(segs, probes)
	for i, s := range segs {
		recs := sd.Neighbours[i]
		if s.A.Equal(s.B) || s.IsVertical() {
			if len(recs) != 0 {
				t.Fatalf("segment %d %v: %d records, want none", i, s, len(recs))
			}
			continue
		}
		c := s.Canonical()
		pts := geom.SortPoints(append([]geom.Point{c.A, c.B}, sd.Splits[i]...))
		if len(recs) != len(pts)-1 {
			t.Fatalf("segment %d %v: %d records for %d split points", i, s, len(recs), len(pts))
		}
		for k, r := range recs {
			if !r.X0.Equal(pts[k].X) || !r.X0.Less(r.X1) || pts[k+1].X.Less(r.X1) {
				t.Fatalf("segment %d %v record %d: interval (%v, %v) does not start at split point %v and end by %v",
					i, s, k, r.X0, r.X1, pts[k], pts[k+1])
			}
			checkRecord(t, segs, probes, i, r)
		}
	}
}

// checkRecord compares one record against the brute-force scan at mid-x.
func checkRecord(t *testing.T, segs []geom.Segment, probes []geom.Point, i int, r sweep.Neighbour) {
	t.Helper()
	x := rat.Mid(r.X0, r.X1)
	inOpen := func(v rat.R) bool { return r.X0.Less(v) && v.Less(r.X1) }
	for _, p := range probes {
		if inOpen(p.X) {
			t.Fatalf("probe %v lies inside interval (%v, %v)", p, r.X0, r.X1)
		}
	}
	yi := segs[i].YAt(x)
	above, below := -1, -1
	var yAbove, yBelow rat.R
	for j, s := range segs {
		if s.A.Equal(s.B) {
			continue // zero-length: no event, no split
		}
		if inOpen(s.A.X) || inOpen(s.B.X) {
			t.Fatalf("segment %d %v has an endpoint inside interval (%v, %v)", j, s, r.X0, r.X1)
		}
		if j == i || s.IsVertical() || !spans(s, x) {
			continue
		}
		y := s.YAt(x)
		switch y.Cmp(yi) {
		case 0:
			if !geom.Collinear(segs[i].A, segs[i].B, s.A) || !geom.Collinear(segs[i].A, segs[i].B, s.B) {
				t.Fatalf("segments %d and %d cross at mid-x %v of interval (%v, %v)", i, j, x, r.X0, r.X1)
			}
		case 1:
			if above < 0 || y.Less(yAbove) {
				above, yAbove = j, y
			}
		case -1:
			if below < 0 || yBelow.Less(y) {
				below, yBelow = j, y
			}
		}
	}
	check := func(side string, got, want int, wantY rat.R) {
		if (got < 0) != (want < 0) {
			t.Fatalf("segment %d on (%v, %v): nearest %s is %d, brute force says %d", i, r.X0, r.X1, side, got, want)
		}
		if got < 0 {
			return
		}
		if s := segs[got]; s.IsVertical() || !spans(s, x) || !s.YAt(x).Equal(wantY) {
			t.Fatalf("segment %d on (%v, %v): nearest %s is %d %v, brute force says %d %v",
				i, r.X0, r.X1, side, got, s, want, segs[want])
		}
	}
	check("above", r.Above, above, yAbove)
	check("below", r.Below, below, yBelow)
}

// spans reports whether x lies in the closed x-range of s.
func spans(s geom.Segment, x rat.R) bool {
	lo, hi := rat.Min(s.A.X, s.B.X), rat.Max(s.A.X, s.B.X)
	return lo.LessEq(x) && x.LessEq(hi)
}

// decodeSegments turns fuzz bytes into segments and probe points on an 8×8
// grid, where verticals, collinear overlaps and shared endpoints are common:
// a tag byte selects a segment (four coordinate bytes) or, one time in four,
// a probe point (two).
func decodeSegments(data []byte) (segs []geom.Segment, probes []geom.Point) {
	c := func(b byte) int64 { return int64(b % 8) }
	for i := 0; i < len(data); {
		tag := data[i]
		i++
		if tag%4 == 3 {
			if i+2 > len(data) {
				break
			}
			probes = append(probes, geom.Pt(c(data[i]), c(data[i+1])))
			i += 2
			continue
		}
		if i+4 > len(data) {
			break
		}
		segs = append(segs, geom.Segment{A: geom.Pt(c(data[i]), c(data[i+1])), B: geom.Pt(c(data[i+2]), c(data[i+3]))})
		i += 4
	}
	return segs, probes
}

// encodeSegments is the seeding inverse of decodeSegments.
func encodeSegments(segs []geom.Segment, probes []geom.Point) []byte {
	b := func(v rat.R) byte { return byte(int8(v.Float())) % 8 }
	var out []byte
	for _, s := range segs {
		out = append(out, 0, b(s.A.X), b(s.A.Y), b(s.B.X), b(s.B.Y))
	}
	for _, p := range probes {
		out = append(out, 3, b(p.X), b(p.Y))
	}
	return out
}

// FuzzSubdivideNeighbours checks Subdivide's neighbour records against the
// brute-force oracle on small-grid segment sets.
func FuzzSubdivideNeighbours(f *testing.F) {
	hand := []struct {
		segs   []geom.Segment
		probes []geom.Point
	}{
		{segs: []geom.Segment{ // '#': crossings inside verticals are no events
			seg(0, 2, 7, 2), seg(0, 5, 7, 5), seg(2, 0, 2, 7), seg(5, 0, 5, 7)}},
		{segs: []geom.Segment{ // collinear overlaps next to a rectangle
			seg(0, 0, 6, 0), seg(6, 0, 6, 4), seg(6, 4, 0, 4), seg(0, 4, 0, 0),
			seg(1, 4, 7, 4), seg(0, 4, 3, 4)}},
		{segs: []geom.Segment{ // shared endpoints: a fan and a star
			seg(0, 0, 4, 4), seg(0, 0, 4, 0), seg(0, 0, 4, 1), seg(0, 0, 0, 4),
			seg(4, 4, 7, 0), seg(4, 4, 7, 7)}},
		{segs: []geom.Segment{ // a vertical crossing several, one ending on it
			seg(3, 0, 3, 7), seg(0, 1, 6, 2), seg(0, 5, 3, 4), seg(1, 6, 7, 6)},
			probes: []geom.Point{geom.Pt(3, 6), geom.Pt(5, 6), geom.Pt(6, 1)}},
	}
	for _, h := range hand {
		f.Add(encodeSegments(h.segs, h.probes))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 200 {
			t.Skip() // the oracle is O(records × segments)
		}
		segs, probes := decodeSegments(data)
		checkNeighbours(t, segs, probes)
	})
}

// TestSubdivideNeighboursWorkloads runs the neighbour-record oracle and its
// count on the boundaries and isolated points of all five workload
// generators.
func TestSubdivideNeighboursWorkloads(t *testing.T) {
	for name, inst := range workloadInstances(t) {
		t.Run(name, func(t *testing.T) {
			var segs []geom.Segment
			var probes []geom.Point
			for _, n := range inst.SortedNames() {
				segs = append(segs, inst.Region(n).BoundarySegments()...)
				probes = append(probes, inst.Region(n).IsolatedPoints()...)
			}
			if len(segs) > 1200 {
				segs = segs[:1200] // keep the brute-force oracle fast
			}
			checkNeighbours(t, segs, probes)
		})
	}
}

// TestSubdivideVerticalCrossingIsNoEvent pins the case Subdivision.Below's
// doc describes: a vertical's interior crossing another segment's interior
// splits both but is no event, so it has no Below entry — and still gets its
// neighbour record.  Below holds exactly the two endpoints that nothing
// passes through, ends at or reaches from below: (0, 0) and (1, −1), not the
// vertical's top (1, 1) or the right end (2, 0).
func TestSubdivideVerticalCrossingIsNoEvent(t *testing.T) {
	segs := []geom.Segment{seg(0, 0, 2, 0), seg(1, -1, 1, 1)}
	sd := sweep.Subdivide(segs, nil)
	cross := geom.Pt(1, 0)
	found := false
	for _, p := range sd.Splits[0] {
		found = found || p.Equal(cross)
	}
	if !found {
		t.Fatalf("Splits[0] = %v, want it to hold %v", sd.Splits[0], cross)
	}
	want := map[geom.PointKey]int{geom.Pt(0, 0).Key(): -1, geom.Pt(1, -1).Key(): -1}
	if !maps.Equal(sd.Below, want) {
		t.Fatalf("Below = %v, want %v", sd.Below, want)
	}
	checkNeighbours(t, segs, nil)
}
