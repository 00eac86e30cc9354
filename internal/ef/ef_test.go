package ef

import (
	"testing"

	"repro/internal/relational"
)

func order(n int) *relational.Structure {
	s := relational.NewStructure(n)
	less := s.AddRelation("Less", 2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			less.Add(i, j)
		}
	}
	return s
}

func TestOrdersEquivalentThreshold(t *testing.T) {
	// Classical fact: linear orders are FOr-equivalent iff equal or both of
	// size >= 2^r - 1.
	for r := 1; r <= 3; r++ {
		for n := 0; n <= 9; n++ {
			for m := 0; m <= 9; m++ {
				want := OrdersEquivalent(n, m, r)
				got := OrdersEquivalentByGame(n, m, r)
				if got != want {
					t.Errorf("r=%d n=%d m=%d: game=%v formula=%v", r, n, m, got, want)
				}
			}
		}
	}
}

func TestEquivalentSignatureMismatch(t *testing.T) {
	a := order(3)
	b := relational.NewStructure(3)
	b.AddRelation("Other", 2)
	if Equivalent(a, b, 1) {
		t.Error("different signatures should not be equivalent")
	}
}

func TestWordsEquivalent(t *testing.T) {
	// Words over {0,1}.  Short words of different content are
	// distinguishable at low rank; long similar words are not.
	if WordsEquivalent(Word{0, 1}, Word{1, 0}, 1, 2) {
		t.Error("01 and 10 are distinguishable at rank 2")
	}
	if !WordsEquivalent(Word{0, 1}, Word{0, 1}, 1, 3) {
		t.Error("identical words must be equivalent")
	}
	// 0^5 and 0^6 are indistinguishable at rank 2 but 0^1 and 0^2 are not.
	if !WordsEquivalent(Word{0, 0, 0, 0, 0}, Word{0, 0, 0, 0, 0, 0}, 1, 2) {
		t.Error("long unary words should be rank-2 equivalent")
	}
	if WordsEquivalent(Word{0}, Word{0, 0}, 1, 2) {
		t.Error("very short unary words are rank-2 distinguishable")
	}
	if w := (Word{0, 1, 1}).String(); w != "011" {
		t.Errorf("Word String = %q", w)
	}
}

func TestConjugates(t *testing.T) {
	c := Conjugates(Word{0, 1, 2})
	if len(c) != 3 {
		t.Fatalf("conjugates = %d, want 3", len(c))
	}
	if c[1].String() != "120" || c[2].String() != "201" {
		t.Errorf("conjugates wrong: %v", c)
	}
}

func TestTypeIndex(t *testing.T) {
	ti := NewTypeIndex(2)
	a := ti.Classify(order(3))
	b := ti.Classify(order(3))
	if a != b {
		t.Error("same structure classified differently")
	}
	c := ti.Classify(order(1))
	if c == a {
		t.Error("distinguishable structures share a type")
	}
	// Orders of size 3, 7 and 9 are rank-2 equivalent (all >= 2^2-1 = 3).
	d := ti.Classify(order(7))
	e := ti.Classify(order(9))
	if d != e || d != a {
		t.Error("rank-2-equivalent orders got different types")
	}
	if ti.Count() != 2 {
		t.Errorf("type count = %d, want 2", ti.Count())
	}
}

func TestMultiset(t *testing.T) {
	if Multiset([]int{0, 0, 1, 1, 1, 2}, 2) != "0^2,1^2,2^1" {
		t.Errorf("Multiset = %q", Multiset([]int{0, 0, 1, 1, 1, 2}, 2))
	}
	if Multiset(nil, 4) != "" {
		t.Error("empty multiset should be empty string")
	}
}

func TestEquivalentLabeledGraphs(t *testing.T) {
	// A 4-cycle and two disjoint edges (symmetrised) differ at rank 3
	// (distinguishing two neighbours takes three pebbles) but not at rank 2.
	cycle4 := relational.NewStructure(4)
	e := cycle4.AddRelation("E", 2)
	for i := 0; i < 4; i++ {
		e.Add(i, (i+1)%4)
		e.Add((i+1)%4, i)
	}
	matching := relational.NewStructure(4)
	e2 := matching.AddRelation("E", 2)
	e2.Add(0, 1)
	e2.Add(1, 0)
	e2.Add(2, 3)
	e2.Add(3, 2)
	if Equivalent(cycle4, matching, 3) {
		t.Error("4-cycle and perfect matching should differ at rank 3")
	}
	if !Equivalent(cycle4, matching, 2) {
		t.Error("4-cycle and perfect matching should agree at rank 2")
	}
	if !Equivalent(cycle4, cycle4, 3) {
		t.Error("structure should be equivalent to itself")
	}
}
