// Package ef implements Ehrenfeucht–Fraïssé games: the r-round game
// characterising FOr-equivalence of finite relational structures, together
// with the specialisations the paper uses in Section 4 — r-types of words
// over a finite alphabet and r-types of coloured cycles (the cycles(I)
// structures of Lemma 4.6–4.8).
package ef

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/relational"
)

// Equivalent reports whether Duplicator wins the r-round Ehrenfeucht–Fraïssé
// game on structures a and b, i.e. whether a and b satisfy the same FO
// sentences of quantifier depth at most r.  Structures must share a
// signature.
//
// The implementation is the textbook recursion: at each round Spoiler picks
// an element in either structure and Duplicator must respond in the other so
// that the partial mapping remains a partial isomorphism.  It is exponential
// in r and intended for the small structures (cycles, cones, invariants of
// test instances) the paper's constructions manipulate.
func Equivalent(a, b *relational.Structure, r int) bool {
	if !a.SameSignature(b) {
		return false
	}
	g := &game{a: a, b: b, memo: map[string]bool{}}
	return g.play(nil, nil, r)
}

type game struct {
	a, b *relational.Structure
	memo map[string]bool
}

// play reports whether Duplicator wins the remaining r rounds given the
// pebbles placed so far.
func (g *game) play(pa, pb []int, r int) bool {
	if !partialIso(g.a, g.b, pa, pb) {
		return false
	}
	if r == 0 {
		return true
	}
	key := memoKey(pa, pb, r)
	if v, ok := g.memo[key]; ok {
		return v
	}
	result := true
	// Spoiler plays in a; Duplicator must answer in b.
	for x := 0; x < g.a.Size && result; x++ {
		found := false
		for y := 0; y < g.b.Size; y++ {
			if g.play(append(pa, x), append(pb, y), r-1) {
				found = true
				break
			}
		}
		if !found {
			result = false
		}
	}
	// Spoiler plays in b; Duplicator must answer in a.
	for y := 0; y < g.b.Size && result; y++ {
		found := false
		for x := 0; x < g.a.Size; x++ {
			if g.play(append(pa, x), append(pb, y), r-1) {
				found = true
				break
			}
		}
		if !found {
			result = false
		}
	}
	g.memo[key] = result
	return result
}

func memoKey(pa, pb []int, r int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d|", r)
	for i := range pa {
		fmt.Fprintf(&b, "%d:%d,", pa[i], pb[i])
	}
	return b.String()
}

// partialIso checks that the pebbled elements induce a partial isomorphism:
// the map pa[i] ↦ pb[i] is well defined, injective, and preserves all
// relations restricted to pebbled elements, in both directions.
func partialIso(a, b *relational.Structure, pa, pb []int) bool {
	fwd := map[int]int{}
	bwd := map[int]int{}
	for i := range pa {
		if y, ok := fwd[pa[i]]; ok && y != pb[i] {
			return false
		}
		if x, ok := bwd[pb[i]]; ok && x != pa[i] {
			return false
		}
		fwd[pa[i]] = pb[i]
		bwd[pb[i]] = pa[i]
	}
	for _, name := range a.RelationNames() {
		ra, rb := a.Relation(name), b.Relation(name)
		if !tuplesAgree(ra, rb, fwd) || !tuplesAgree(rb, ra, bwd) {
			return false
		}
	}
	return true
}

// tuplesAgree checks that every tuple of ra all of whose elements are mapped
// has its image in rb.
func tuplesAgree(ra, rb *relational.Relation, m map[int]int) bool {
	for _, t := range ra.Tuples() {
		img := make([]int, len(t))
		complete := true
		for i, e := range t {
			y, ok := m[e]
			if !ok {
				complete = false
				break
			}
			img[i] = y
		}
		if complete && !rb.Has(img...) {
			return false
		}
	}
	return true
}

// --- words ---------------------------------------------------------------------

// Word is a finite word over an alphabet of small non-negative integers
// (colours).
type Word []int

func (w Word) String() string {
	parts := make([]string, len(w))
	for i, c := range w {
		parts[i] = fmt.Sprintf("%d", c)
	}
	return strings.Join(parts, "")
}

// WordStructure encodes a word as a finite structure: the universe is the set
// of positions, with the linear order Less and one unary relation Colour<c>
// per colour in 0…maxColour.
func WordStructure(w Word, maxColour int) *relational.Structure {
	s := relational.NewStructure(len(w))
	less := s.AddRelation("Less", 2)
	for i := 0; i < len(w); i++ {
		for j := i + 1; j < len(w); j++ {
			less.Add(i, j)
		}
	}
	for c := 0; c <= maxColour; c++ {
		rel := s.AddRelation(fmt.Sprintf("Colour%d", c), 1)
		for i, x := range w {
			if x == c {
				rel.Add(i)
			}
		}
	}
	return s
}

// WordsEquivalent reports whether two words over colours 0…maxColour satisfy
// the same FO sentences of quantifier depth r (with order and colour
// predicates).
func WordsEquivalent(a, b Word, maxColour, r int) bool {
	return Equivalent(WordStructure(a, maxColour), WordStructure(b, maxColour), r)
}

// Conjugates returns all rotations of the word (the conjugate words used in
// Lemma 4.8).
func Conjugates(w Word) []Word {
	out := make([]Word, 0, len(w))
	for i := range w {
		rot := make(Word, 0, len(w))
		rot = append(rot, w[i:]...)
		rot = append(rot, w[:i]...)
		out = append(out, rot)
	}
	return out
}

// --- linear orders ----------------------------------------------------------

// OrdersEquivalent reports whether two bare linear orders of the given sizes
// are FOr-equivalent.  The classical fact (used in the Zone B argument of
// Lemma 4.6) is that they are equivalent iff they are equal or both have at
// least 2^r − 1 elements.
func OrdersEquivalent(n, m, r int) bool {
	threshold := (1 << uint(r)) - 1
	if n == m {
		return true
	}
	return n >= threshold && m >= threshold
}

// OrdersEquivalentByGame decides the same question by actually playing the
// game on order structures (used to validate OrdersEquivalent in tests).
func OrdersEquivalentByGame(n, m, r int) bool {
	mk := func(k int) *relational.Structure {
		s := relational.NewStructure(k)
		less := s.AddRelation("Less", 2)
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				less.Add(i, j)
			}
		}
		return s
	}
	return Equivalent(mk(n), mk(m), r)
}

// --- r-type bookkeeping -------------------------------------------------------

// TypeIndex assigns stable identifiers to FOr-equivalence classes of
// structures as they are encountered.  Representatives are retained so that
// later structures can be classified by playing the game against them.
type TypeIndex struct {
	r    int
	reps []*relational.Structure
}

// NewTypeIndex creates an index for FOr-equivalence.
func NewTypeIndex(r int) *TypeIndex { return &TypeIndex{r: r} }

// Count returns the number of distinct types seen so far.
func (ti *TypeIndex) Count() int { return len(ti.reps) }

// Classify returns the type ID of the structure, registering a new type if it
// is not FOr-equivalent to any representative seen before.
func (ti *TypeIndex) Classify(s *relational.Structure) int {
	for i, rep := range ti.reps {
		if Equivalent(rep, s, ti.r) {
			return i
		}
	}
	ti.reps = append(ti.reps, s.Clone())
	return len(ti.reps) - 1
}

// Multiset summarises a multiset of type IDs with multiplicities truncated at
// the given cap — the ≈r equivalence of the paper truncates at 2^r.
func Multiset(ids []int, cap int) string {
	counts := map[int]int{}
	for _, id := range ids {
		counts[id]++
	}
	keys := make([]int, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		c := counts[k]
		if c > cap {
			c = cap
		}
		parts = append(parts, fmt.Sprintf("%d^%d", k, c))
	}
	return strings.Join(parts, ",")
}
