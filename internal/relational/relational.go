// Package relational implements finite relational structures: the classical
// relational databases over which the paper's invariant query languages (FO,
// fixpoint, fixpoint+counting, while) are evaluated.
//
// A Structure has a finite universe {0, …, n-1} and a set of named relations
// of fixed arity.  The topological invariant of a spatial instance is
// exported as such a structure (package invariant), and package logic
// evaluates formulas over it.
package relational

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Tuple is an ordered list of universe elements.
type Tuple []int

// Key returns a canonical string encoding of the tuple.
func (t Tuple) Key() string {
	var b strings.Builder
	for i, v := range t {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
	}
	return b.String()
}

func (t Tuple) String() string { return "(" + t.Key() + ")" }

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Relation is a named finite relation of fixed arity.
type Relation struct {
	Name   string
	Arity  int
	tuples map[string]Tuple
}

// NewRelation creates an empty relation.
func NewRelation(name string, arity int) *Relation {
	return &Relation{Name: name, Arity: arity, tuples: make(map[string]Tuple)}
}

// Add inserts a tuple; it panics if the arity does not match.
func (r *Relation) Add(t ...int) {
	if len(t) != r.Arity {
		panic(fmt.Sprintf("relational: relation %s has arity %d, got tuple of length %d", r.Name, r.Arity, len(t)))
	}
	tp := Tuple(t).Clone()
	r.tuples[tp.Key()] = tp
}

// Has reports whether the tuple is present.
func (r *Relation) Has(t ...int) bool {
	if len(t) != r.Arity {
		return false
	}
	_, ok := r.tuples[Tuple(t).Key()]
	return ok
}

// Size returns the number of tuples.
func (r *Relation) Size() int { return len(r.tuples) }

// Tuples returns the tuples in a deterministic (sorted) order.
func (r *Relation) Tuples() []Tuple {
	keys := make([]string, 0, len(r.tuples))
	for k := range r.tuples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Tuple, 0, len(keys))
	for _, k := range keys {
		out = append(out, r.tuples[k].Clone())
	}
	return out
}

// Clone returns a deep copy of the relation.
func (r *Relation) Clone() *Relation {
	out := NewRelation(r.Name, r.Arity)
	for k, v := range r.tuples {
		out.tuples[k] = v.Clone()
	}
	return out
}

// Equal reports whether two relations hold exactly the same tuples.
func (r *Relation) Equal(o *Relation) bool {
	if r.Arity != o.Arity || len(r.tuples) != len(o.tuples) {
		return false
	}
	for k := range r.tuples {
		if _, ok := o.tuples[k]; !ok {
			return false
		}
	}
	return true
}

// Structure is a finite relational structure.
type Structure struct {
	// Size is the number of universe elements; elements are 0 … Size-1.
	Size      int
	relations map[string]*Relation
	// Names optionally maps elements to human-readable names (used for
	// reporting; not part of the structure's identity).
	Names map[int]string
}

// NewStructure creates a structure with the given universe size.
func NewStructure(size int) *Structure {
	return &Structure{Size: size, relations: make(map[string]*Relation), Names: make(map[int]string)}
}

// AddRelation registers an empty relation and returns it.  It panics if the
// name is already taken.
func (s *Structure) AddRelation(name string, arity int) *Relation {
	if _, dup := s.relations[name]; dup {
		panic(fmt.Sprintf("relational: duplicate relation %q", name))
	}
	r := NewRelation(name, arity)
	s.relations[name] = r
	return r
}

// Relation returns the named relation, or nil.
func (s *Structure) Relation(name string) *Relation { return s.relations[name] }

// HasRelation reports whether the structure defines the named relation.
func (s *Structure) HasRelation(name string) bool {
	_, ok := s.relations[name]
	return ok
}

// RelationNames returns the relation names in sorted order.
func (s *Structure) RelationNames() []string {
	out := make([]string, 0, len(s.relations))
	for n := range s.relations {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Clone returns a deep copy of the structure.
func (s *Structure) Clone() *Structure {
	out := NewStructure(s.Size)
	for n, r := range s.relations {
		out.relations[n] = r.Clone()
	}
	for k, v := range s.Names {
		out.Names[k] = v
	}
	return out
}

// TupleCount returns the total number of tuples across all relations.
func (s *Structure) TupleCount() int {
	n := 0
	for _, r := range s.relations {
		n += r.Size()
	}
	return n
}

// String renders a short description.
func (s *Structure) String() string {
	return fmt.Sprintf("structure(|U|=%d, relations=%d, tuples=%d)", s.Size, len(s.relations), s.TupleCount())
}

// SameSignature reports whether two structures have identical signatures.
func (s *Structure) SameSignature(o *Structure) bool {
	if len(s.relations) != len(o.relations) {
		return false
	}
	for n, r := range s.relations {
		or, ok := o.relations[n]
		if !ok || or.Arity != r.Arity {
			return false
		}
	}
	return true
}

// Isomorphic reports whether there is a bijection of the universes of a and b
// preserving all relations.  It uses simple invariant-based pruning followed
// by backtracking and is intended for the moderately sized structures that
// arise as topological invariants in tests and experiments.
func Isomorphic(a, b *Structure) bool {
	if a.Size != b.Size || !a.SameSignature(b) {
		return false
	}
	for _, n := range a.RelationNames() {
		if a.relations[n].Size() != b.relations[n].Size() {
			return false
		}
	}
	// Element profiles: for each element, how many times it occurs in each
	// relation at each position.
	profA := profiles(a)
	profB := profiles(b)
	// Group b's elements by profile for candidate generation.
	candidates := make([][]int, a.Size)
	byProf := map[string][]int{}
	for e := 0; e < b.Size; e++ {
		byProf[profB[e]] = append(byProf[profB[e]], e)
	}
	for e := 0; e < a.Size; e++ {
		candidates[e] = byProf[profA[e]]
		if len(candidates[e]) == 0 {
			return false
		}
	}
	// Order elements by fewest candidates first.
	order := make([]int, a.Size)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return len(candidates[order[i]]) < len(candidates[order[j]]) })

	mapping := make([]int, a.Size)
	used := make([]bool, b.Size)
	for i := range mapping {
		mapping[i] = -1
	}
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == len(order) {
			return checkMapping(a, b, mapping)
		}
		e := order[k]
		for _, f := range candidates[e] {
			if used[f] {
				continue
			}
			mapping[e] = f
			used[f] = true
			if partialConsistent(a, b, mapping) && rec(k+1) {
				return true
			}
			mapping[e] = -1
			used[f] = false
		}
		return false
	}
	return rec(0)
}

func profiles(s *Structure) []string {
	prof := make([]map[string]int, s.Size)
	for i := range prof {
		prof[i] = map[string]int{}
	}
	for _, n := range s.RelationNames() {
		for _, t := range s.relations[n].Tuples() {
			for pos, e := range t {
				prof[e][fmt.Sprintf("%s@%d", n, pos)]++
			}
		}
	}
	out := make([]string, s.Size)
	for i, m := range prof {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "%s=%d;", k, m[k])
		}
		out[i] = b.String()
	}
	return out
}

// partialConsistent checks all tuples whose elements are fully mapped.
func partialConsistent(a, b *Structure, mapping []int) bool {
	for _, n := range a.RelationNames() {
		ra, rb := a.relations[n], b.relations[n]
		for _, t := range ra.Tuples() {
			img := make(Tuple, len(t))
			complete := true
			for i, e := range t {
				if mapping[e] < 0 {
					complete = false
					break
				}
				img[i] = mapping[e]
			}
			if complete && !rb.Has(img...) {
				return false
			}
		}
	}
	return true
}

func checkMapping(a, b *Structure, mapping []int) bool {
	for _, n := range a.RelationNames() {
		ra, rb := a.relations[n], b.relations[n]
		for _, t := range ra.Tuples() {
			img := make(Tuple, len(t))
			for i, e := range t {
				img[i] = mapping[e]
			}
			if !rb.Has(img...) {
				return false
			}
		}
	}
	return true
}
