package sweep

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/rat"
)

// TestSweeperComparatorsVsBig checks the two status comparisons the sweep
// makes, cmpPoint (a point's side of a segment's supporting line) and
// cmpSlope, against their direct formulas in math/big.  Points come in the
// kinds the predicates' fuzzer decodes: the 10⁻⁷ grid GeoJSON import snaps
// to, small integers (collinear points and shared x are common), fractions
// at the int64 edges, and segments joining two kinds.  Every segment is also
// given reversed, so the sweeper's canonicalisation is covered.
func TestSweeperComparatorsVsBig(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	edges := []int64{math.MinInt64, math.MinInt64 + 1, -1 << 62, -3_037_000_499, -7, -1, 1, 3, 3_037_000_500, 1 << 61, math.MaxInt64}
	coord := func(kind int) rat.R {
		switch kind {
		case 0:
			return rat.New(rng.Int63n(2e13+1)-1e13, 1e7)
		case 1:
			return rat.FromInt(rng.Int63n(9))
		default:
			return rat.New(edges[rng.Intn(len(edges))], edges[rng.Intn(len(edges))])
		}
	}
	point := func(kind int) geom.Point { return geom.PtR(coord(kind), coord(kind)) }
	for _, kinds := range [][2]int{{0, 0}, {1, 1}, {2, 2}, {0, 1}, {1, 2}, {0, 2}} {
		var segs []geom.Segment
		var probes []geom.Point
		for len(segs) < 24 {
			a, b := point(kinds[0]), point(kinds[1])
			probes = append(probes, a, b, point(kinds[0]), point(kinds[1]))
			if a.Equal(b) {
				continue
			}
			segs = append(segs, geom.Seg(a, b), geom.Seg(b, a))
		}
		sw := newSweeper(segs, nil, nil)
		for i, s := range segs {
			if s.IsVertical() {
				continue
			}
			for _, p := range probes {
				if got, want := sw.cmpPoint(p, i), bigCmpPointSeg(p, s); got != want {
					t.Fatalf("kinds %v: cmpPoint(%v, %v) = %d, want %d", kinds, p, s, got, want)
				}
			}
			for j, u := range segs {
				if u.IsVertical() {
					continue
				}
				if got, want := sw.cmpSlope(i, j), bigCmpSlope(s, u); got != want {
					t.Fatalf("kinds %v: cmpSlope(%v, %v) = %d, want %d", kinds, s, u, got, want)
				}
			}
		}
	}
}

func bigR(r rat.R) *big.Rat { return new(big.Rat).SetFrac(r.Num(), r.Den()) }

func bsub(x, y rat.R) *big.Rat { return new(big.Rat).Sub(bigR(x), bigR(y)) }

func bmul(x, y *big.Rat) *big.Rat { return new(big.Rat).Mul(x, y) }

// bigLeftToRight orders s's endpoints by x in big.Rat; s is not vertical.
func bigLeftToRight(s geom.Segment) geom.Segment {
	if bigR(s.A.X).Cmp(bigR(s.B.X)) > 0 {
		return geom.Segment{A: s.B, B: s.A}
	}
	return s
}

// bigCmpPointSeg compares p.Y with the y of s's supporting line at p.X:
// p.Y·dx against A.Y·dx + (p.X − A.X)·dy, with dx > 0.
func bigCmpPointSeg(p geom.Point, s geom.Segment) int {
	s = bigLeftToRight(s)
	dx := bsub(s.B.X, s.A.X)
	n := new(big.Rat).Add(bmul(bigR(s.A.Y), dx), bmul(bsub(p.X, s.A.X), bsub(s.B.Y, s.A.Y)))
	return bmul(bigR(p.Y), dx).Cmp(n)
}

// bigCmpSlope compares the slopes dy/dx of two non-vertical segments.
func bigCmpSlope(s, u geom.Segment) int {
	s, u = bigLeftToRight(s), bigLeftToRight(u)
	return bmul(bsub(s.B.Y, s.A.Y), bsub(u.B.X, u.A.X)).Cmp(bmul(bsub(u.B.Y, u.A.Y), bsub(s.B.X, s.A.X)))
}
