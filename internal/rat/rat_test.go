package rat

import (
	"fmt"
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestNewCanonicalForm(t *testing.T) {
	cases := []struct {
		num, den int64
		want     string
	}{
		{1, 2, "1/2"},
		{2, 4, "1/2"},
		{-2, 4, "-1/2"},
		{2, -4, "-1/2"},
		{-2, -4, "1/2"},
		{0, 5, "0"},
		{0, -5, "0"},
		{7, 1, "7"},
		{-7, 1, "-7"},
		{6, 3, "2"},
		{100, 10, "10"},
	}
	for _, c := range cases {
		got := New(c.num, c.den).String()
		if got != c.want {
			t.Errorf("New(%d,%d) = %s, want %s", c.num, c.den, got, c.want)
		}
	}
}

func TestNewZeroDenominatorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero denominator")
		}
	}()
	New(1, 0)
}

func TestZeroValueBehavesAsZero(t *testing.T) {
	var z R
	if z.Sign() != 0 {
		t.Errorf("zero value Sign = %d, want 0", z.Sign())
	}
	if got := z.Add(One); !got.Equal(One) {
		t.Errorf("0 + 1 = %v, want 1", got)
	}
	if got := z.Mul(FromInt(7)); got.Sign() != 0 {
		t.Errorf("0 * 7 = %v, want 0", got)
	}
	if z.String() != "0" {
		t.Errorf("zero value String = %q", z.String())
	}
}

func TestArithmeticBasics(t *testing.T) {
	a := New(1, 3)
	b := New(1, 6)
	if got := a.Add(b); !got.Equal(Half) {
		t.Errorf("1/3 + 1/6 = %v, want 1/2", got)
	}
	if got := a.Sub(b); !got.Equal(New(1, 6)) {
		t.Errorf("1/3 - 1/6 = %v, want 1/6", got)
	}
	if got := a.Mul(b); !got.Equal(New(1, 18)) {
		t.Errorf("1/3 * 1/6 = %v, want 1/18", got)
	}
	if got := a.Div(b); !got.Equal(Two) {
		t.Errorf("(1/3) / (1/6) = %v, want 2", got)
	}
	if got := a.Neg(); !got.Equal(New(-1, 3)) {
		t.Errorf("-(1/3) = %v", got)
	}
	if got := New(4, 7).Inv(); !got.Equal(New(7, 4)) {
		t.Errorf("(4/7)^-1 = %v", got)
	}
	if got := New(-4, 7).Inv(); !got.Equal(New(-7, 4)) {
		t.Errorf("(-4/7)^-1 = %v", got)
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	One.Div(Zero)
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Zero.Inv()
}

func TestCmpAndOrdering(t *testing.T) {
	vals := []R{New(-5, 2), New(-1, 1), Zero, New(1, 3), Half, One, New(7, 2)}
	for i := range vals {
		for j := range vals {
			got := vals[i].Cmp(vals[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Cmp(%v,%v) = %d, want %d", vals[i], vals[j], got, want)
			}
			if (vals[i].Less(vals[j])) != (want < 0) {
				t.Errorf("Less(%v,%v) mismatch", vals[i], vals[j])
			}
			if (vals[i].LessEq(vals[j])) != (want <= 0) {
				t.Errorf("LessEq(%v,%v) mismatch", vals[i], vals[j])
			}
		}
	}
}

func TestMinMaxMid(t *testing.T) {
	a, b := New(1, 3), New(1, 2)
	if !Min(a, b).Equal(a) || !Min(b, a).Equal(a) {
		t.Error("Min wrong")
	}
	if !Max(a, b).Equal(b) || !Max(b, a).Equal(b) {
		t.Error("Max wrong")
	}
	if !Mid(a, b).Equal(New(5, 12)) {
		t.Errorf("Mid(1/3,1/2) = %v, want 5/12", Mid(a, b))
	}
}

func TestOverflowFallsBackToBig(t *testing.T) {
	huge := New(math.MaxInt64, 3)
	sum := huge.Add(huge)
	want := new(big.Rat).SetFrac64(math.MaxInt64, 3)
	want.Add(want, new(big.Rat).SetFrac64(math.MaxInt64, 3))
	if sum.toBig().Cmp(want) != 0 {
		t.Errorf("overflow add wrong: %v", sum)
	}
	prod := huge.Mul(huge)
	wantP := new(big.Rat).SetFrac64(math.MaxInt64, 3)
	wantP.Mul(wantP, wantP)
	if prod.toBig().Cmp(wantP) != 0 {
		t.Errorf("overflow mul wrong: %v", prod)
	}
	// Operations on big-backed values keep working and compare correctly.
	if prod.Cmp(sum) <= 0 {
		t.Error("expected prod > sum")
	}
	if !prod.Sub(prod).Equal(Zero) {
		t.Error("big - big != 0")
	}
}

func TestMinInt64EdgeCases(t *testing.T) {
	m := FromInt(math.MinInt64)
	if got := m.Neg(); got.Sign() <= 0 {
		t.Errorf("-MinInt64 should be positive, got %v", got)
	}
	inv := m.Inv()
	if inv.Sign() >= 0 {
		t.Errorf("1/MinInt64 should be negative, got %v", inv)
	}
	r := New(5, math.MinInt64)
	if r.Sign() >= 0 {
		t.Errorf("5/MinInt64 should be negative, got %v", r)
	}
	// Negating MinInt64 in int64 overflows: a gcd taken that way comes out
	// negative, and Mul's cross-reduction by it flips the product's sign.
	if got := m.Mul(New(1, 7)); got.String() != "-9223372036854775808/7" {
		t.Errorf("MinInt64 * 1/7 = %v, want -9223372036854775808/7", got)
	}
	// New must reduce a MinInt64 numerator: Key is the canonical form that
	// point maps rely on, so equal values must share it.
	got, want := New(math.MinInt64, 6), New(-1<<62, 3)
	if !got.Equal(want) || got.Key() != want.Key() {
		t.Errorf("New(MinInt64, 6) = %v (key %q), want %v (key %q)", got, got.Key(), want, want.Key())
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want R
		ok   bool
	}{
		{"1/2", Half, true},
		{" -3 / 4 ", New(-3, 4), true},
		{"7", FromInt(7), true},
		{"-12", FromInt(-12), true},
		{"0.25", New(1, 4), true},
		{"-1.5", New(-3, 2), true},
		{"", Zero, false},
		{"a/b", Zero, false},
		{"1/0", Zero, false},
		{"1e2", FromInt(100), true},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if c.ok && err != nil {
			t.Errorf("Parse(%q) unexpected error %v", c.in, err)
			continue
		}
		if !c.ok {
			if err == nil {
				t.Errorf("Parse(%q) expected error", c.in)
			}
			continue
		}
		if !got.Equal(c.want) {
			t.Errorf("Parse(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustParse("not-a-number")
}

func TestStringAndKey(t *testing.T) {
	if New(3, 9).Key() != "1/3" {
		t.Errorf("Key = %q", New(3, 9).Key())
	}
	if FromInt(5).String() != "5" {
		t.Errorf("String = %q", FromInt(5).String())
	}
}

func TestFloatApproximation(t *testing.T) {
	if got := New(1, 4).Float(); got != 0.25 {
		t.Errorf("Float(1/4) = %v", got)
	}
	if got := New(-7, 2).Float(); got != -3.5 {
		t.Errorf("Float(-7/2) = %v", got)
	}
}

// --- property-based tests ---------------------------------------------------

// genR builds a rational from arbitrary int64s, keeping denominators nonzero.
func genR(n, d int64) R {
	if d == 0 {
		d = 1
	}
	// Keep magnitudes moderate so most operations stay on the fast path but
	// some overflow into the big fallback.
	return New(n%1_000_003, d%1_000_003+boolToInt(d%1_000_003 == 0))
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func TestPropAddCommutative(t *testing.T) {
	f := func(an, ad, bn, bd int64) bool {
		a, b := genR(an, ad), genR(bn, bd)
		return a.Add(b).Equal(b.Add(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropAddAssociative(t *testing.T) {
	f := func(an, ad, bn, bd, cn, cd int64) bool {
		a, b, c := genR(an, ad), genR(bn, bd), genR(cn, cd)
		return a.Add(b).Add(c).Equal(a.Add(b.Add(c)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropMulDistributesOverAdd(t *testing.T) {
	f := func(an, ad, bn, bd, cn, cd int64) bool {
		a, b, c := genR(an, ad), genR(bn, bd), genR(cn, cd)
		return a.Mul(b.Add(c)).Equal(a.Mul(b).Add(a.Mul(c)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropSubThenAddRoundTrips(t *testing.T) {
	f := func(an, ad, bn, bd int64) bool {
		a, b := genR(an, ad), genR(bn, bd)
		return a.Sub(b).Add(b).Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropDivInvertsMul(t *testing.T) {
	f := func(an, ad, bn, bd int64) bool {
		a, b := genR(an, ad), genR(bn, bd)
		if b.Sign() == 0 {
			return true
		}
		return a.Mul(b).Div(b).Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropCmpMatchesBigRat(t *testing.T) {
	f := func(an, ad, bn, bd int64) bool {
		a, b := genR(an, ad), genR(bn, bd)
		return a.Cmp(b) == a.toBig().Cmp(b.toBig())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropStringRoundTrips(t *testing.T) {
	f := func(an, ad int64) bool {
		a := genR(an, ad)
		parsed, err := Parse(a.String())
		return err == nil && parsed.Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FuzzRatVsBig checks Add, Sub, Mul, Cmp and CmpMul against math/big on
// four arbitrary int64 pairs, so it reaches the 64-bit edges the property
// tests above never draw: MinInt64, products near 2⁶³ where the 128- and
// 256-bit compares take over, and the 10⁻⁷ grid GeoJSON import snaps to.
// Every result must also be canonical, which is what Key relies on.
func FuzzRatVsBig(f *testing.F) {
	const grid = 10_000_000
	for _, s := range [][8]int64{
		{math.MinInt64, 1, 1, 7, math.MinInt64, 6, -1 << 62, 3},
		{math.MaxInt64, 1, math.MinInt64, math.MaxInt64, math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, -1},
		{23_456_789_012, grid, -17_999_999_999, grid, 12_345_678_901, grid, 98_765_432_109, grid},
		{1_800_000_000, grid, -900_000_001, grid, 7, grid, -5, 2 * grid},
		{3_037_000_499, 1, 3_037_000_500, 1, 1<<62 + 1, 3, 1<<62 - 1, 5},
		{1 << 32, 1<<31 - 1, -(1 << 32), 1<<31 + 1, 1 << 31, 1<<32 + 3, 1<<31 + 7, 1 << 32},
		{0, -5, 5, math.MinInt64, -3, math.MinInt64 + 1, math.MaxInt64, 2},
	} {
		f.Add(s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7])
	}
	f.Fuzz(func(t *testing.T, an, ad, bn, bd, cn, cd, dn, dd int64) {
		var vals [4]R
		var bigs [4]*big.Rat
		for i, p := range [4][2]int64{{an, ad}, {bn, bd}, {cn, cd}, {dn, dd}} {
			if p[1] == 0 {
				p[1] = 1
			}
			vals[i] = New(p[0], p[1])
			bigs[i] = new(big.Rat).SetFrac(big.NewInt(p[0]), big.NewInt(p[1]))
			checkVsBig(t, fmt.Sprintf("New(%d, %d)", p[0], p[1]), vals[i], bigs[i])
		}
		for i, x := range vals {
			for j, y := range vals {
				bx, by := bigs[i], bigs[j]
				checkVsBig(t, fmt.Sprintf("%v + %v", x, y), x.Add(y), new(big.Rat).Add(bx, by))
				checkVsBig(t, fmt.Sprintf("%v - %v", x, y), x.Sub(y), new(big.Rat).Sub(bx, by))
				checkVsBig(t, fmt.Sprintf("%v * %v", x, y), x.Mul(y), new(big.Rat).Mul(bx, by))
				if got, want := x.Cmp(y), bx.Cmp(by); got != want {
					t.Fatalf("Cmp(%v, %v) = %d, want %d", x, y, got, want)
				}
			}
		}
		for _, q := range [][4]int{{0, 1, 2, 3}, {0, 2, 1, 3}, {3, 1, 0, 2}, {0, 1, 1, 0}} {
			a, b, c, d := vals[q[0]], vals[q[1]], vals[q[2]], vals[q[3]]
			lhs := new(big.Rat).Mul(bigs[q[0]], bigs[q[1]])
			rhs := new(big.Rat).Mul(bigs[q[2]], bigs[q[3]])
			if got, want := CmpMul(a, b, c, d), lhs.Cmp(rhs); got != want {
				t.Fatalf("CmpMul(%v, %v, %v, %v) = %d, want %d", a, b, c, d, got, want)
			}
		}
	})
}

// checkVsBig fails unless got equals want in canonical form, and unless
// Int64s reports exactly the values whose numerator and denominator fit in
// int64.
func checkVsBig(t *testing.T, what string, got R, want *big.Rat) {
	t.Helper()
	if got.String() != want.RatString() {
		t.Fatalf("%s = %s, want %s", what, got, want.RatString())
	}
	num, den, ok := got.Int64s()
	if fits := want.Num().IsInt64() && want.Denom().IsInt64(); ok != fits {
		t.Fatalf("%s = %s: Int64s ok = %v, want %v", what, got, ok, fits)
	}
	if ok && (num != want.Num().Int64() || den != want.Denom().Int64()) {
		t.Fatalf("%s: Int64s = %d/%d, want %s", what, num, den, want.RatString())
	}
}

func BenchmarkAddFastPath(b *testing.B) {
	x, y := New(12345, 67891), New(98765, 43211)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.Add(y)
	}
}

func BenchmarkMulFastPath(b *testing.B) {
	x, y := New(12345, 67891), New(98765, 43211)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.Mul(y)
	}
}

func BenchmarkCmpFastPath(b *testing.B) {
	x, y := New(12345, 67891), New(98765, 43211)
	for i := 0; i < b.N; i++ {
		_ = x.Cmp(y)
	}
}

func BenchmarkAddBigFallback(b *testing.B) {
	x := New(math.MaxInt64-1, 3)
	y := New(math.MaxInt64-7, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.Add(y)
	}
}
