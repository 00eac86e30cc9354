package arrangement

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/rat"
	"repro/internal/region"
	"repro/internal/spatial"
)

// This file pins the float-grid missed-intersection bug that motivated
// rebuilding the subdivision on the exact sweep.
//
// The old candidate finder compared padded float64 bounding boxes.  rat.R's
// Float() rounds numerator and denominator independently before dividing, so
// it is NOT monotone across denominators: two exact rationals a < b can have
// Float(a) - Float(b) as large as one ulp each way — at magnitude 2^53 that
// is ±2, three million times the finder's fixed 1e-6 pad.
//
// Concrete witness (validated by TestGridPairFinderMissedPair):
//
//	m1 = 2^53 + 1                     — odd; rounds DOWN to 2^53 (ties-to-even)
//	m2 = (1001·2^53 + 1000) / 1001    — exactly m1 - 1/1001, so m2 < m1, but
//	                                    the numerator's low bits (1000 of a
//	                                    1024 ulp) round UP, and the quotient
//	                                    2^53 + 1024/1001 rounds UP again to
//	                                    2^53 + 2
//
// So exactly m2 < m1 while Float(m2) - Float(m1) = 2.  A horizontal segment
// ending at x = m1 and a vertical segment at x = m2 truly cross, yet their
// padded float boxes are disjoint and the grid finder dropped the pair,
// silently corrupting the subdivision (a missing vertex changes every
// downstream topological invariant).  The sweep path works on the exact
// rationals end to end and cannot miss a pair at any magnitude.

const (
	m1Num = 1<<53 + 1           // 9007199254740993
	m2Num = 1001*(1<<53) + 1000 // numerator of m2, coprime to 1001
	m2Den = 1001
)

func gridWitnessSegments() []geom.Segment {
	m1 := rat.FromInt(m1Num)
	m2 := rat.New(m2Num, m2Den)
	h := geom.Segment{A: geom.Pt(0, 0), B: geom.PtR(m1, rat.Zero)}
	v := geom.Segment{A: geom.PtR(m2, rat.FromInt(-1)), B: geom.PtR(m2, rat.FromInt(1))}
	return []geom.Segment{h, v}
}

func TestGridPairFinderMissedPair(t *testing.T) {
	segs := gridWitnessSegments()
	m2 := rat.New(m2Num, m2Den)

	// Sanity: the segments truly intersect, at (m2, 0).
	x := geom.SegmentIntersection(segs[0], segs[1])
	if x.Kind != geom.PointIntersection {
		t.Fatalf("witness segments do not intersect exactly: kind %v", x.Kind)
	}
	if !x.P.Equal(geom.PtR(m2, rat.Zero)) {
		t.Fatalf("intersection at %v, want (m2, 0)", x.P)
	}

	// Sanity: the float approximations really are out of order by 2.
	if d := m2.Float() - rat.FromInt(m1Num).Float(); d != 2 {
		t.Fatalf("Float(m2) - Float(m1) = %v, want 2 (non-monotone rounding)", d)
	}

	// The exact reference finds the pair.
	if got := naiveCandidatePairs(segs); len(got) != 1 {
		t.Fatalf("naiveCandidatePairs found %d pairs, want 1", len(got))
	}

	// The old float-grid finder (verbatim copy below) missed it: this was
	// red against the deleted gridCandidatePairs and documents the bug.
	if got := oldGridCandidatePairs(segs); len(got) != 0 {
		t.Fatalf("old grid finder found %d pairs; the witness no longer pins the bug", len(got))
	}
}

func TestSweepFindsGridMissedCrossing(t *testing.T) {
	m1 := rat.FromInt(m1Num)
	m2 := rat.New(m2Num, m2Den)
	regs := map[string]region.Region{
		"H": region.FromPolyline(geom.MustPolyline(geom.Pt(0, 0), geom.PtR(m1, rat.Zero))),
		"V": region.FromPolyline(geom.MustPolyline(
			geom.PtR(m2, rat.FromInt(-1)), geom.PtR(m2, rat.FromInt(1)))),
	}
	want := geom.PtR(m2, rat.Zero)
	for _, tc := range []struct {
		name  string
		build func(*spatial.Instance) (*Complex, error)
	}{
		{"sweep", Build},
		{"naive", buildReference},
	} {
		cx, err := tc.build(instanceOf(regs))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// The crossing splits both polylines: 4 endpoints + the degree-4
		// crossing vertex survive reduction.
		if len(cx.Vertices) != 5 {
			t.Errorf("%s: %d vertices, want 5 (crossing missed?)", tc.name, len(cx.Vertices))
		}
		found := false
		for _, v := range cx.Vertices {
			if v.Point.Equal(want) {
				found = true
				if signIn(cx, v.Sign, "H") != Boundary || signIn(cx, v.Sign, "V") != Boundary {
					t.Errorf("%s: crossing vertex signs H=%v V=%v, want boundary/boundary",
						tc.name, signIn(cx, v.Sign, "H"), signIn(cx, v.Sign, "V"))
				}
			}
		}
		if !found {
			t.Errorf("%s: no vertex at the exact crossing (m2, 0)", tc.name)
		}
	}
}

// oldGridCandidatePairs is a verbatim copy of the gridCandidatePairs the
// sweep rebuild deleted, kept only so TestGridPairFinderMissedPair keeps
// demonstrating the bug it had.  Its doc comment claimed the pad made the
// candidate set a superset of the exact-box-overlap pairs "for all practical
// coordinate magnitudes" — false at magnitude 2^53 and beyond.
func oldGridCandidatePairs(segs []geom.Segment) [][2]int {
	n := len(segs)
	if n < 2 {
		return nil
	}
	type fbox struct{ minX, maxX, minY, maxY float64 }
	boxes := make([]fbox, n)
	gMinX, gMinY := math.Inf(1), math.Inf(1)
	gMaxX, gMaxY := math.Inf(-1), math.Inf(-1)
	for i, s := range segs {
		b := s.Box()
		pad := 1e-6
		fb := fbox{
			minX: b.MinX.Float() - pad, maxX: b.MaxX.Float() + pad,
			minY: b.MinY.Float() - pad, maxY: b.MaxY.Float() + pad,
		}
		boxes[i] = fb
		gMinX = math.Min(gMinX, fb.minX)
		gMinY = math.Min(gMinY, fb.minY)
		gMaxX = math.Max(gMaxX, fb.maxX)
		gMaxY = math.Max(gMaxY, fb.maxY)
	}
	width := gMaxX - gMinX
	height := gMaxY - gMinY
	if width <= 0 {
		width = 1
	}
	if height <= 0 {
		height = 1
	}
	// Aim for roughly n cells.
	cells := int(math.Sqrt(float64(n))) + 1
	cw := width / float64(cells)
	ch := height / float64(cells)
	if cw <= 0 {
		cw = 1
	}
	if ch <= 0 {
		ch = 1
	}
	cellOf := func(x, y float64) (int, int) {
		cx := int((x - gMinX) / cw)
		cy := int((y - gMinY) / ch)
		if cx < 0 {
			cx = 0
		}
		if cy < 0 {
			cy = 0
		}
		if cx >= cells {
			cx = cells - 1
		}
		if cy >= cells {
			cy = cells - 1
		}
		return cx, cy
	}
	buckets := make(map[[2]int][]int)
	for i, fb := range boxes {
		x0, y0 := cellOf(fb.minX, fb.minY)
		x1, y1 := cellOf(fb.maxX, fb.maxY)
		for cx := x0; cx <= x1; cx++ {
			for cy := y0; cy <= y1; cy++ {
				buckets[[2]int{cx, cy}] = append(buckets[[2]int{cx, cy}], i)
			}
		}
	}
	seen := make(map[[2]int]bool)
	var out [][2]int
	overlap := func(a, b fbox) bool {
		return a.minX <= b.maxX && b.minX <= a.maxX && a.minY <= b.maxY && b.minY <= a.maxY
	}
	for _, ids := range buckets {
		for x := 0; x < len(ids); x++ {
			for y := x + 1; y < len(ids); y++ {
				i, j := ids[x], ids[y]
				if i > j {
					i, j = j, i
				}
				key := [2]int{i, j}
				if seen[key] {
					continue
				}
				seen[key] = true
				if overlap(boxes[i], boxes[j]) {
					out = append(out, key)
				}
			}
		}
	}
	return out
}
