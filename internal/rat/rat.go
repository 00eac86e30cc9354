// Package rat provides exact rational arithmetic for the geometric
// substrate of the topological-invariant library.
//
// The paper's spatial model uses regions defined by polynomial (and, after
// linearisation, linear) inequalities with rational coefficients.  All
// geometric predicates used while building the maximum topological cell
// decomposition (segment intersection, orientation tests, point location)
// must therefore be exact: a single mis-classified sign flips the topology of
// the resulting invariant.
//
// R is a rational number held as an int64 numerator/denominator pair, with a
// transparent fallback to math/big for values that do not fit.  While the
// operands are int64 pairs, Cmp, Sign and CmpMul never leave machine words:
// they compare 128-bit (Cmp) and 256-bit (CmpMul) products built with
// math/bits, so they never allocate and never fall back.  Add and Sub divide
// out gcd(den₁, den₂) before multiplying (Knuth, TAOCP §4.5.1), so two values
// on one decimal grid add without widening.  Add, Sub, Mul, Neg and Inv use
// math/big only when an intermediate product or the result overflows int64;
// a result that fits is demoted back to the pair, so a value that fits in
// int64 is always held as one.  Values are always kept in canonical form:
// the denominator is positive and gcd(|num|, den) == 1; zero is 0/1.
//
// Two operations serve the geometry's inner loops.  Key is a comparable map
// key built from the canonical pair, so equal values have equal keys without
// rendering any text; only a math/big value, which never fits a pair, is
// keyed by its decimal text.  CmpMulDiff, the sign of a difference of
// products of differences that every orientation test asks for, forms the
// differences as unreduced pairs, which its 256-bit compare does not need
// in lowest terms, so it takes no gcd; it falls back to the reduced Sub and
// CmpMul only when an operand is a math/big value or an intermediate
// overflows int64.
package rat

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"strconv"
	"strings"
)

// R is an immutable exact rational number.  The zero value is the number 0.
//
// Internally a value either uses the (num, den) int64 pair (big == nil) or,
// when an operation overflowed 64-bit intermediates, a *big.Rat.  Callers
// never observe the difference.
type R struct {
	num int64
	den int64 // 0 means "use big"; otherwise den > 0
	big *big.Rat
}

// Zero is the rational number 0.
var Zero = R{num: 0, den: 1}

// One is the rational number 1.
var One = R{num: 1, den: 1}

// Two is the rational number 2.
var Two = R{num: 2, den: 1}

// Half is the rational number 1/2.
var Half = R{num: 1, den: 2}

// FromInt returns the rational n/1.
func FromInt(n int64) R {
	return R{num: n, den: 1}
}

// New returns the rational num/den in canonical form.  It panics if den == 0.
func New(num, den int64) R {
	if den == 0 {
		panic("rat: zero denominator")
	}
	if den < 0 {
		// Careful with MinInt64: fall back to big to avoid overflow on negation.
		if num == math.MinInt64 || den == math.MinInt64 {
			return fromBig(new(big.Rat).SetFrac(big.NewInt(num), big.NewInt(den)))
		}
		num, den = -num, -den
	}
	if g := gcd(num, den); g > 1 {
		num /= g
		den /= g
	}
	return R{num: num, den: den}
}

// Parse parses a rational from a string.  Accepted forms are "a", "a/b" and
// decimal notation such as "-3.25".
func Parse(s string) (R, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Zero, fmt.Errorf("rat: empty string")
	}
	if i := strings.IndexByte(s, '/'); i >= 0 {
		num, err := strconv.ParseInt(strings.TrimSpace(s[:i]), 10, 64)
		if err != nil {
			return Zero, fmt.Errorf("rat: bad numerator %q: %w", s[:i], err)
		}
		den, err := strconv.ParseInt(strings.TrimSpace(s[i+1:]), 10, 64)
		if err != nil {
			return Zero, fmt.Errorf("rat: bad denominator %q: %w", s[i+1:], err)
		}
		if den == 0 {
			return Zero, fmt.Errorf("rat: zero denominator in %q", s)
		}
		return New(num, den), nil
	}
	if strings.ContainsAny(s, ".eE") {
		br, ok := new(big.Rat).SetString(s)
		if !ok {
			return Zero, fmt.Errorf("rat: cannot parse %q", s)
		}
		return fromBig(br), nil
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		br, ok := new(big.Rat).SetString(s)
		if !ok {
			return Zero, fmt.Errorf("rat: cannot parse %q", s)
		}
		return fromBig(br), nil
	}
	return FromInt(n), nil
}

// MustParse is Parse that panics on error; intended for literals in tests and
// examples.
func MustParse(s string) R {
	r, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return r
}

// FromBigRat returns the rational equal to br.  The value is copied; callers
// may mutate br afterwards.  Values that fit int64 are demoted to the fast
// representation, so FromBigRat(x).Equal(New(n, d)) behaves as expected.
func FromBigRat(br *big.Rat) R {
	return fromBig(br)
}

func fromBig(br *big.Rat) R {
	// Try to demote to the int64 fast path.
	if br.Num().IsInt64() && br.Denom().IsInt64() {
		return New(br.Num().Int64(), br.Denom().Int64())
	}
	cp := new(big.Rat).Set(br)
	return R{big: cp}
}

func (r R) toBig() *big.Rat {
	if r.big != nil {
		return r.big
	}
	den := r.den
	if den == 0 {
		den = 1 // zero value of R
	}
	return new(big.Rat).SetFrac64(r.num, den)
}

// isFast reports whether r uses the int64 representation.
func (r R) isFast() bool { return r.big == nil }

// normalised returns r with a zero-value denominator fixed up to 1.
func (r R) normalised() R {
	if r.big == nil && r.den == 0 {
		return R{num: r.num, den: 1}
	}
	return r
}

// Num returns the numerator as a *big.Int (always freshly allocated).
func (r R) Num() *big.Int { return new(big.Int).Set(r.toBig().Num()) }

// Den returns the denominator as a *big.Int (always freshly allocated).
func (r R) Den() *big.Int { return new(big.Int).Set(r.toBig().Denom()) }

// Int64s returns the canonical numerator and denominator of r, with ok true,
// when both fit in int64, and ok false otherwise.  Unlike Num and Den it
// does not allocate.
func (r R) Int64s() (num, den int64, ok bool) {
	r = r.normalised()
	if r.isFast() {
		return r.num, r.den, true
	}
	return 0, 0, false
}

// Add returns r + s.
func (r R) Add(s R) R {
	r, s = r.normalised(), s.normalised()
	if r.isFast() && s.isFast() {
		if sum, ok := addFast(r, s); ok {
			return sum
		}
	}
	return fromBig(new(big.Rat).Add(r.toBig(), s.toBig()))
}

// addFast adds two canonical int64 pairs by Knuth's method (TAOCP §4.5.1):
// with d₁ = gcd(r.den, s.den) and t = r.num·(s.den/d₁) + s.num·(r.den/d₁),
// the sum is (t/d₂) / ((r.den/d₁)·(s.den/d₂)) for d₂ = gcd(t, d₁), already in
// lowest terms.  ok is false when an intermediate overflows int64.
func addFast(r, s R) (R, bool) {
	d1 := gcd(r.den, s.den)
	n1, ok1 := mul64(r.num, s.den/d1)
	n2, ok2 := mul64(s.num, r.den/d1)
	if !ok1 || !ok2 {
		return R{}, false
	}
	t, ok := add64(n1, n2)
	if !ok {
		return R{}, false
	}
	d2 := gcd(t, d1)
	den, ok := mul64(r.den/d1, s.den/d2)
	if !ok {
		return R{}, false
	}
	return R{num: t / d2, den: den}, true
}

// Sub returns r - s.
func (r R) Sub(s R) R { return r.Add(s.Neg()) }

// Neg returns -r.
func (r R) Neg() R {
	r = r.normalised()
	if r.isFast() {
		if r.num == math.MinInt64 {
			return fromBig(new(big.Rat).Neg(r.toBig()))
		}
		return R{num: -r.num, den: r.den}
	}
	return fromBig(new(big.Rat).Neg(r.big))
}

// Mul returns r * s.
func (r R) Mul(s R) R {
	r, s = r.normalised(), s.normalised()
	if r.isFast() && s.isFast() {
		// Cross-reduce first to keep intermediates small.
		g1 := gcd(r.num, s.den)
		g2 := gcd(s.num, r.den)
		rn, sd := r.num/g1, s.den/g1
		sn, rd := s.num/g2, r.den/g2
		n, ok1 := mul64(rn, sn)
		d, ok2 := mul64(rd, sd)
		if ok1 && ok2 {
			return New(n, d)
		}
	}
	return fromBig(new(big.Rat).Mul(r.toBig(), s.toBig()))
}

// Div returns r / s.  It panics if s is zero.
func (r R) Div(s R) R {
	if s.Sign() == 0 {
		panic("rat: division by zero")
	}
	return r.Mul(s.Inv())
}

// Inv returns 1/r.  It panics if r is zero.
func (r R) Inv() R {
	r = r.normalised()
	if r.Sign() == 0 {
		panic("rat: inverse of zero")
	}
	if r.isFast() {
		if r.num == math.MinInt64 {
			return fromBig(new(big.Rat).Inv(r.toBig()))
		}
		if r.num < 0 {
			return R{num: -r.den, den: -r.num}
		}
		return R{num: r.den, den: r.num}
	}
	return fromBig(new(big.Rat).Inv(r.big))
}

// Sign returns -1, 0 or +1 according to the sign of r.
func (r R) Sign() int {
	r = r.normalised()
	if r.isFast() {
		return sign64(r.num)
	}
	return r.big.Sign()
}

// Cmp compares r and s and returns -1, 0 or +1.
func (r R) Cmp(s R) int {
	r, s = r.normalised(), s.normalised()
	if r.isFast() && s.isFast() {
		// r − s has the sign of r.num·s.den − s.num·r.den: compare the
		// signs, then the 128-bit magnitudes of the two products.
		sr, ss := sign64(r.num), sign64(s.num)
		if sr != ss || sr == 0 {
			return sign64(int64(sr - ss))
		}
		x := mul128(mag(r.num), uint64(s.den))
		y := mul128(mag(s.num), uint64(r.den))
		return sr * cmpWords(x[:], y[:])
	}
	return r.toBig().Cmp(s.toBig())
}

// CmpMul returns the sign of a·b − c·d, that is a.Mul(b).Cmp(c.Mul(d)),
// without forming either product.  While all four operands are int64 pairs
// it compares an·bn·cd·dd with cn·dn·ad·bd (every denominator is positive)
// by sign and then as 256-bit magnitudes, so it never allocates.
func CmpMul(a, b, c, d R) int {
	a, b, c, d = a.normalised(), b.normalised(), c.normalised(), d.normalised()
	if a.isFast() && b.isFast() && c.isFast() && d.isFast() {
		return cmpMulPairs(a, b, c, d)
	}
	return a.Mul(b).Cmp(c.Mul(d))
}

// CmpMulDiff returns the sign of (a1−a0)·(b1−b0) − (c1−c0)·(d1−d0), that is
// CmpMul(a1.Sub(a0), b1.Sub(b0), c1.Sub(c0), d1.Sub(d0)), without reducing
// the differences to lowest terms.
func CmpMulDiff(a1, a0, b1, b0, c1, c0, d1, d0 R) int {
	a, okA := diffPair(a1, a0)
	b, okB := diffPair(b1, b0)
	c, okC := diffPair(c1, c0)
	d, okD := diffPair(d1, d0)
	if okA && okB && okC && okD {
		return cmpMulPairs(a, b, c, d)
	}
	return CmpMul(a1.Sub(a0), b1.Sub(b0), c1.Sub(c0), d1.Sub(d0))
}

// diffPair returns x − y as an int64 pair with a positive denominator that
// need not be in lowest terms: the numerators' difference over a shared
// denominator, else the cross products' difference over the denominators'
// product.  ok is false when x or y is a math/big value or an intermediate
// overflows int64.  Such a pair is only ever passed to cmpMulPairs, so no R
// a caller sees is non-canonical.
func diffPair(x, y R) (R, bool) {
	x, y = x.normalised(), y.normalised()
	if !x.isFast() || !y.isFast() {
		return R{}, false
	}
	if x.den == y.den {
		n, ok := sub64(x.num, y.num)
		return R{num: n, den: x.den}, ok
	}
	n1, ok1 := mul64(x.num, y.den)
	n2, ok2 := mul64(y.num, x.den)
	den, ok3 := mul64(x.den, y.den)
	n, ok4 := sub64(n1, n2)
	return R{num: n, den: den}, ok1 && ok2 && ok3 && ok4
}

// cmpMulPairs returns the sign of a·b − c·d for four int64 pairs with
// positive denominators, in lowest terms or not.  It compares
// an·bn·cd·dd with cn·dn·ad·bd by sign and then as 256-bit magnitudes.
func cmpMulPairs(a, b, c, d R) int {
	sl, sr := sign64(a.num)*sign64(b.num), sign64(c.num)*sign64(d.num)
	if sl != sr || sl == 0 {
		return sign64(int64(sl - sr))
	}
	x := mul256(mul128(mag(a.num), mag(b.num)), mul128(uint64(c.den), uint64(d.den)))
	y := mul256(mul128(mag(c.num), mag(d.num)), mul128(uint64(a.den), uint64(b.den)))
	return sl * cmpWords(x[:], y[:])
}

// Equal reports whether r == s.
func (r R) Equal(s R) bool { return r.Cmp(s) == 0 }

// Less reports whether r < s.
func (r R) Less(s R) bool { return r.Cmp(s) < 0 }

// LessEq reports whether r <= s.
func (r R) LessEq(s R) bool { return r.Cmp(s) <= 0 }

// Float returns the nearest float64 approximation of r.
func (r R) Float() float64 {
	r = r.normalised()
	if r.isFast() {
		return float64(r.num) / float64(r.den)
	}
	f, _ := r.big.Float64()
	return f
}

// Min returns the smaller of r and s.
func Min(r, s R) R {
	if r.Cmp(s) <= 0 {
		return r.normalised()
	}
	return s.normalised()
}

// Max returns the larger of r and s.
func Max(r, s R) R {
	if r.Cmp(s) >= 0 {
		return r.normalised()
	}
	return s.normalised()
}

// Mid returns the midpoint (r+s)/2.
func Mid(r, s R) R { return r.Add(s).Mul(Half) }

// String renders r as "a" or "a/b".
func (r R) String() string {
	r = r.normalised()
	if r.isFast() {
		if r.den == 1 {
			return strconv.FormatInt(r.num, 10)
		}
		return strconv.FormatInt(r.num, 10) + "/" + strconv.FormatInt(r.den, 10)
	}
	return r.big.RatString()
}

// Key is a comparable map key for exact equality: two values have equal
// keys exactly when they are equal.  A value that fits int64 is always held
// as its canonical pair, and its key is that pair; a math/big value never
// fits, and its key is its decimal text (big.Rat.RatString, also canonical).
type Key struct {
	num, den int64
	big      string
}

// Key returns r's map key.
func (r R) Key() Key {
	r = r.normalised() // the zero value R{} keys as 0/1, like Zero
	if r.isFast() {
		return Key{num: r.num, den: r.den}
	}
	return Key{big: r.big.RatString()}
}

// --- small integer helpers -------------------------------------------------

// sign64 returns -1, 0 or +1 according to the sign of a.
func sign64(a int64) int {
	switch {
	case a > 0:
		return 1
	case a < 0:
		return -1
	default:
		return 0
	}
}

// mag returns |a| as a uint64; unlike -a it is exact for math.MinInt64.
func mag(a int64) uint64 {
	if a < 0 {
		return -uint64(a)
	}
	return uint64(a)
}

// gcd returns gcd(|a|, b) for b > 0.  It works on uint64 magnitudes, so a may
// be math.MinInt64, and the result fits in int64 because it divides b.
func gcd(a, b int64) int64 {
	x, y := mag(a), uint64(b)
	for y != 0 {
		x, y = y, x%y
	}
	return int64(x)
}

// mul128 returns the 128-bit product x·y, most significant word first.
func mul128(x, y uint64) [2]uint64 {
	hi, lo := bits.Mul64(x, y)
	return [2]uint64{hi, lo}
}

// mul256 returns the 256-bit product x·y of two 128-bit values, most
// significant word first.
func mul256(x, y [2]uint64) [4]uint64 {
	h0, w0 := bits.Mul64(x[1], y[1])
	h1, l1 := bits.Mul64(x[1], y[0])
	h2, l2 := bits.Mul64(x[0], y[1])
	h3, l3 := bits.Mul64(x[0], y[0])
	w1, c1 := bits.Add64(h0, l1, 0)
	w1, c2 := bits.Add64(w1, l2, 0)
	w2, c3 := bits.Add64(h1, h2, c1)
	w2, c4 := bits.Add64(w2, l3, c2)
	return [4]uint64{h3 + c3 + c4, w2, w1, w0}
}

// cmpWords compares two unsigned integers of equal word length, most
// significant word first.
func cmpWords(x, y []uint64) int {
	for i := range x {
		if x[i] != y[i] {
			if x[i] < y[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// mul64 multiplies with overflow detection.  It forms the 128-bit product of
// the magnitudes, which is cheaper than checking a wrapped product by
// division.
func mul64(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(mag(a), mag(b))
	if (a < 0) != (b < 0) {
		if hi != 0 || lo > 1<<63 {
			return 0, false
		}
		return -int64(lo), true
	}
	if hi != 0 || lo > math.MaxInt64 {
		return 0, false
	}
	return int64(lo), true
}

// add64 adds with overflow detection.
func add64(a, b int64) (int64, bool) {
	c := a + b
	if (b > 0 && c < a) || (b < 0 && c > a) {
		return 0, false
	}
	return c, true
}

// sub64 subtracts with overflow detection.
func sub64(a, b int64) (int64, bool) {
	c := a - b
	if (b > 0 && c > a) || (b < 0 && c < a) {
		return 0, false
	}
	return c, true
}
