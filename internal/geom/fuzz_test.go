package geom

import (
	"encoding/binary"
	"math"
	"math/big"
	"testing"

	"repro/internal/rat"
)

// pointSource decodes fuzz bytes into points of three kinds, chosen per
// point by a kind byte: 0 a point on the 10⁻⁷ grid GeoJSON import snaps to,
// with numerators up to 10¹³ in magnitude; 1 a point with small integer
// coordinates, where collinear and shared-x cases are common; 2 a point with
// arbitrary int64 fractions, which reach the math/big fallback.  Exhausted
// input reads as zeros.
type pointSource struct{ data []byte }

func (s *pointSource) kind() byte {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return b
}

func (s *pointSource) int64() int64 {
	var buf [8]byte
	n := copy(buf[:], s.data)
	s.data = s.data[n:]
	return int64(binary.LittleEndian.Uint64(buf[:]))
}

func (s *pointSource) coord(kind byte) rat.R {
	switch kind % 3 {
	case 0:
		return rat.New(s.int64()%(1e13+1), 1e7)
	case 1:
		return rat.FromInt(s.int64() % 9)
	default:
		num, den := s.int64(), s.int64()
		if den == 0 {
			den = 1
		}
		return rat.New(num, den)
	}
}

func (s *pointSource) point() Point {
	kind := s.kind()
	return Point{s.coord(kind), s.coord(kind)}
}

// predicateSeed encodes one kind byte followed by int64 words, in the layout
// pointSource reads.
func predicateSeed(kind byte, words ...int64) []byte {
	out := []byte{kind}
	for _, w := range words {
		out = binary.LittleEndian.AppendUint64(out, uint64(w))
	}
	return out
}

// FuzzPredicatesVsBig checks Orientation against its direct
// cross-multiplied formula, evaluated in math/big with no shortcut, on
// triples of the five decoded points.  Segments are s = p0p1 and t = p2p3;
// p4 is a probe point.  It also checks the map keys: two points have equal
// keys exactly when they are equal, and two segments exactly when they have
// the same endpoints, in either orientation.  Each seed ends with one more
// coordinate, which the target ignores.
func FuzzPredicatesVsBig(f *testing.F) {
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	// Land-use-like grid points, a crossing pair sharing no x.
	f.Add(cat(
		predicateSeed(0, 12_345_678_901, 9_876_543_210), predicateSeed(0, 12_399_999_999, 9_880_000_001),
		predicateSeed(0, 12_350_000_000, 9_890_000_000), predicateSeed(0, 12_390_000_000, 9_870_000_000),
		predicateSeed(0, 12_360_000_000, 9_877_000_000), predicateSeed(0, 12_370_000_000)))
	// Small integers: t starts at s's midpoint, probe on s's extension.
	f.Add(cat(
		predicateSeed(1, 0, 0), predicateSeed(1, 4, 4), predicateSeed(1, 2, 2), predicateSeed(1, 6, 0),
		predicateSeed(1, 8, 8), predicateSeed(1, 2)))
	// Collinear overlapping segments on the grid, probe on the line.
	f.Add(cat(
		predicateSeed(0, 0, 0), predicateSeed(0, 40_000_000, 20_000_000),
		predicateSeed(0, 20_000_000, 10_000_000), predicateSeed(0, 60_000_000, 30_000_000),
		predicateSeed(0, 10_000_000, 5_000_000), predicateSeed(0, 30_000_000)))
	// A vertical segment.
	f.Add(cat(
		predicateSeed(1, 3, 0), predicateSeed(1, 3, 5), predicateSeed(1, 0, 1), predicateSeed(1, 5, 2),
		predicateSeed(1, 3, 3), predicateSeed(1, 3)))
	// Arbitrary fractions at the int64 edges.
	f.Add(cat(
		predicateSeed(2, math.MinInt64, 3, math.MaxInt64, 7), predicateSeed(2, math.MaxInt64, 5, math.MinInt64, 9),
		predicateSeed(2, -1<<62, 1<<40+1, 1<<62, 3), predicateSeed(2, 1<<61, 1<<20, -1<<61, 1<<21),
		predicateSeed(2, 3_037_000_500, 1, 3_037_000_499, 1), predicateSeed(2, 1, 2)))
	// One segment from two kinds of points: s runs from grid (1, 2) to grid
	// (5, 1), and t is s reversed, from integer points.
	f.Add(cat(
		predicateSeed(0, 10_000_000, 20_000_000), predicateSeed(0, 50_000_000, 10_000_000),
		predicateSeed(1, 5, 1), predicateSeed(1, 1, 2), predicateSeed(1, 3, 3), predicateSeed(1, 3)))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &pointSource{data}
		var p [5]Point
		for i := range p {
			p[i] = src.point()
		}
		s, u := Segment{p[0], p[1]}, Segment{p[2], p[3]}

		for _, a := range p {
			for _, b := range p {
				if (a.Key() == b.Key()) != a.Equal(b) {
					t.Fatalf("%v and %v: equal keys %v, Equal %v", a, b, a.Key() == b.Key(), a.Equal(b))
				}
			}
		}
		same := (s.A.Equal(u.A) && s.B.Equal(u.B)) || (s.A.Equal(u.B) && s.B.Equal(u.A))
		if s.Key() != s.Reverse().Key() || (s.Key() == u.Key()) != same {
			t.Fatalf("segment keys of %v and %v: reverse equal %v, equal %v, want %v",
				s, u, s.Key() == s.Reverse().Key(), s.Key() == u.Key(), same)
		}

		for _, q := range [][3]int{{0, 1, 4}, {2, 3, 4}, {0, 1, 2}, {4, 3, 0}} {
			a, b, c := p[q[0]], p[q[1]], p[q[2]]
			if got, want := Orientation(a, b, c), bigOrientation(a, b, c); got != want {
				t.Fatalf("Orientation(%v, %v, %v) = %d, want %d", a, b, c, got, want)
			}
		}
	})
}

// The oracle: the orientation's direct cross-multiplied formula, evaluated
// in big.Rat.

func bigR(r rat.R) *big.Rat { return new(big.Rat).SetFrac(r.Num(), r.Den()) }

func bsub(x, y rat.R) *big.Rat { return new(big.Rat).Sub(bigR(x), bigR(y)) }

func bmul(x, y *big.Rat) *big.Rat { return new(big.Rat).Mul(x, y) }

func bigOrientation(a, b, c Point) int {
	lhs := bmul(bsub(b.X, a.X), bsub(c.Y, a.Y))
	rhs := bmul(bsub(b.Y, a.Y), bsub(c.X, a.X))
	return lhs.Cmp(rhs)
}

// BenchmarkOrientationGrid times one orientation test on three points of
// the 10⁻⁷ grid that GeoJSON import snaps to, at map-like magnitudes: the
// products of their coordinate differences exceed 2⁶³.
func BenchmarkOrientationGrid(b *testing.B) {
	const grid = 10_000_000
	p := PtR(rat.New(12_345_678_901, grid), rat.New(9_876_543_211, grid))
	q := PtR(rat.New(12_399_999_993, grid), rat.New(9_880_000_017, grid))
	r := PtR(rat.New(12_360_000_049, grid), rat.New(9_877_000_003, grid))
	b.ReportAllocs()
	for b.Loop() {
		Orientation(p, q, r)
	}
}
