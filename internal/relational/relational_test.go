package relational

import (
	"testing"
	"testing/quick"
)

func TestTupleKeyAndClone(t *testing.T) {
	tp := Tuple{1, 2, 3}
	if tp.Key() != "1,2,3" || tp.String() != "(1,2,3)" {
		t.Errorf("Key/String wrong: %s %s", tp.Key(), tp.String())
	}
	cp := tp.Clone()
	cp[0] = 99
	if tp[0] != 1 {
		t.Error("Clone not independent")
	}
}

func TestRelationBasics(t *testing.T) {
	r := NewRelation("R", 2)
	r.Add(1, 2)
	r.Add(2, 3)
	r.Add(1, 2) // duplicate
	if r.Size() != 2 {
		t.Errorf("Size = %d, want 2", r.Size())
	}
	if !r.Has(1, 2) || r.Has(2, 1) || r.Has(1) {
		t.Error("Has wrong")
	}
	tuples := r.Tuples()
	if len(tuples) != 2 {
		t.Errorf("Tuples = %v", tuples)
	}
	cl := r.Clone()
	cl.Add(5, 5)
	if r.Size() != 2 || cl.Size() != 3 {
		t.Error("Clone not independent")
	}
	if !r.Equal(r.Clone()) || r.Equal(cl) {
		t.Error("Equal wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch should panic")
		}
	}()
	r.Add(1, 2, 3)
}

func TestStructureBasics(t *testing.T) {
	s := NewStructure(4)
	e := s.AddRelation("E", 2)
	e.Add(0, 1)
	e.Add(1, 2)
	u := s.AddRelation("U", 1)
	u.Add(3)
	if !s.HasRelation("E") || s.HasRelation("X") {
		t.Error("HasRelation wrong")
	}
	if s.Relation("E").Size() != 2 {
		t.Error("Relation accessor wrong")
	}
	if s.TupleCount() != 3 {
		t.Errorf("TupleCount = %d", s.TupleCount())
	}
	if got := s.RelationNames(); len(got) != 2 || got[0] != "E" || got[1] != "U" {
		t.Errorf("RelationNames = %v", got)
	}
	cl := s.Clone()
	for _, n := range []string{"E", "U"} {
		if !s.Relation(n).Equal(cl.Relation(n)) {
			t.Errorf("clone's %s differs from the original", n)
		}
	}
	cl.Relation("E").Add(2, 3)
	if s.Relation("E").Equal(cl.Relation("E")) {
		t.Error("adding to the clone changed the original")
	}
	if s.String() == "" {
		t.Error("String empty")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate relation should panic")
		}
	}()
	s.AddRelation("E", 2)
}

func TestSameSignature(t *testing.T) {
	a := NewStructure(2)
	a.AddRelation("E", 2)
	b := NewStructure(5)
	b.AddRelation("E", 2)
	if !a.SameSignature(b) {
		t.Error("same signatures reported different")
	}
	c := NewStructure(2)
	c.AddRelation("E", 1)
	if a.SameSignature(c) {
		t.Error("different arities reported same")
	}
	d := NewStructure(2)
	d.AddRelation("F", 2)
	if a.SameSignature(d) {
		t.Error("different names reported same")
	}
}

// cycle builds a directed cycle structure on n elements with an offset
// permutation applied to element names.
func cycle(n int, shift int) *Structure {
	s := NewStructure(n)
	e := s.AddRelation("E", 2)
	for i := 0; i < n; i++ {
		e.Add((i+shift)%n, (i+1+shift)%n)
	}
	return s
}

func TestIsomorphicCycles(t *testing.T) {
	if !Isomorphic(cycle(5, 0), cycle(5, 2)) {
		t.Error("shifted cycles should be isomorphic")
	}
	if Isomorphic(cycle(5, 0), cycle(6, 0)) {
		t.Error("cycles of different lengths should not be isomorphic")
	}
	// A cycle and a path are not isomorphic.
	path := NewStructure(5)
	e := path.AddRelation("E", 2)
	for i := 0; i < 4; i++ {
		e.Add(i, i+1)
	}
	if Isomorphic(cycle(5, 0), path) {
		t.Error("cycle and path should not be isomorphic")
	}
}

func TestIsomorphicRespectsUnaryLabels(t *testing.T) {
	mk := func(reds []int) *Structure {
		s := NewStructure(4)
		e := s.AddRelation("E", 2)
		for i := 0; i < 4; i++ {
			e.Add(i, (i+1)%4)
		}
		r := s.AddRelation("Red", 1)
		for _, x := range reds {
			r.Add(x)
		}
		return s
	}
	// Two adjacent red nodes vs two opposite red nodes: not isomorphic.
	if Isomorphic(mk([]int{0, 1}), mk([]int{0, 2})) {
		t.Error("adjacent vs opposite labelled cycles should differ")
	}
	if !Isomorphic(mk([]int{0, 1}), mk([]int{2, 3})) {
		t.Error("rotated labelling should be isomorphic")
	}
}

func TestIsomorphicTwoComponentGraphs(t *testing.T) {
	// Two triangles vs a hexagon: same degree sequence, not isomorphic.
	twoTriangles := NewStructure(6)
	e := twoTriangles.AddRelation("E", 2)
	for _, base := range []int{0, 3} {
		for i := 0; i < 3; i++ {
			a, b := base+i, base+(i+1)%3
			e.Add(a, b)
			e.Add(b, a)
		}
	}
	hexagon := NewStructure(6)
	e2 := hexagon.AddRelation("E", 2)
	for i := 0; i < 6; i++ {
		e2.Add(i, (i+1)%6)
		e2.Add((i+1)%6, i)
	}
	if Isomorphic(twoTriangles, hexagon) {
		t.Error("two triangles and a hexagon should not be isomorphic")
	}
}

func TestIsomorphicIsReflexiveUnderPermutation(t *testing.T) {
	f := func(seed uint8) bool {
		n := 5
		s := NewStructure(n)
		e := s.AddRelation("E", 2)
		// Pseudo-random small graph from the seed.
		x := int(seed)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				x = (x*31 + i*7 + j*13 + 1) % 97
				if x%3 == 0 {
					e.Add(i, j)
				}
			}
		}
		// Apply the permutation p(i) = (i*2+1) mod 5 (a bijection on 0..4).
		perm := func(i int) int { return (i*2 + 1) % n }
		s2 := NewStructure(n)
		e2 := s2.AddRelation("E", 2)
		for _, tup := range e.Tuples() {
			e2.Add(perm(tup[0]), perm(tup[1]))
		}
		return Isomorphic(s, s2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
