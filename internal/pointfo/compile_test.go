package pointfo

import (
	"fmt"
	"testing"

	"repro/internal/region"
	"repro/internal/spatial"
)

func compiledOn(t *testing.T, regs map[string]region.Region) (*Evaluator, *CompiledEvaluator) {
	t.Helper()
	names := make([]string, 0, len(regs))
	for n := range regs {
		names = append(names, n)
	}
	inst := spatial.MustBuild(spatial.MustSchema(names...), regs)
	ev, err := NewEvaluator(inst)
	if err != nil {
		t.Fatalf("NewEvaluator: %v", err)
	}
	ce, err := CompileEvaluator(inst)
	if err != nil {
		t.Fatalf("CompileEvaluator: %v", err)
	}
	return ev, ce
}

// agree asserts tree-walk and compiled evaluation give the same verdict.
func agree(t *testing.T, ev *Evaluator, ce *CompiledEvaluator, f PointFormula) bool {
	t.Helper()
	want, err := ev.EvalPoint(f, nil)
	if err != nil {
		t.Fatalf("tree EvalPoint(%s): %v", f, err)
	}
	got, err := ce.EvalPoint(f)
	if err != nil {
		t.Fatalf("compiled EvalPoint(%s): %v", f, err)
	}
	if got != want {
		t.Fatalf("compiled(%s) = %v, tree-walk = %v", f, got, want)
	}
	return got
}

func TestMembershipMatrixMatchesGeometry(t *testing.T) {
	ev, ce := compiledOn(t, map[string]region.Region{
		"P": region.Rect(0, 0, 4, 4),
		"Q": region.Rect(2, 2, 6, 6),
	})
	s := ce.Sample()
	if len(s.Regions) != 2 || s.Regions[0] != "P" || s.Regions[1] != "Q" {
		t.Fatalf("Regions = %v, want sorted [P Q]", s.Regions)
	}
	for r, name := range s.Regions {
		for i, p := range s.Points {
			if got, want := s.In[r].has(i), ev.inst.Contains(name, p); got != want {
				t.Errorf("In[%s] bit for %v = %v, geometry says %v", name, p, got, want)
			}
			if got, want := s.Interior[r].has(i), ev.inst.Region(name).ContainsInterior(p); got != want {
				t.Errorf("Interior[%s] bit for %v = %v, geometry says %v", name, p, got, want)
			}
		}
	}
}

func TestCompiledMatchesTreeWalkOnCanonicalQueries(t *testing.T) {
	shapes := []map[string]region.Region{
		{"P": region.Rect(0, 0, 4, 4), "Q": region.Rect(2, 2, 6, 6)},
		{"P": region.Rect(0, 0, 4, 4), "Q": region.Rect(10, 10, 14, 14)},
		{"P": region.Rect(0, 0, 2, 2), "Q": region.Rect(2, 0, 4, 2)},
		{"P": region.Rect(3, 3, 6, 6), "Q": region.Rect(0, 0, 10, 10)},
	}
	queries := []PointFormula{
		QueryIntersect("P", "Q"),
		QueryIntersect("Q", "P"),
		QueryContained("P", "Q"),
		QueryContained("Q", "P"),
		QueryBoundaryOnlyIntersection("P", "Q"),
		// Alternating quantifiers with order atoms and implication.
		PForall{[]string{"u"}, PImplies{
			InInterior{"P", "u"},
			PExists{[]string{"v"}, PAnd{[]PointFormula{In{"P", "v"}, PNot{InInterior{"P", "v"}}, LessX{"v", "u"}}}},
		}},
		// Three quantified variables, mixed block sizes.
		PExists{[]string{"a", "b"}, PAnd{[]PointFormula{
			In{"P", "a"}, In{"Q", "b"}, LessX{"a", "b"},
			PForall{[]string{"c"}, PImplies{SamePoint{"c", "a"}, In{"P", "c"}}},
		}}},
		// Variable shadowing: the inner u rebinds the outer one.
		PExists{[]string{"u"}, PAnd{[]PointFormula{
			In{"P", "u"},
			PExists{[]string{"u"}, In{"Q", "u"}},
		}}},
		// Empty connectives.
		PAnd{},
		PNot{POr{}},
		PExists{[]string{"u"}, PAnd{}},
	}
	for _, regs := range shapes {
		ev, ce := compiledOn(t, regs)
		for _, q := range queries {
			agree(t, ev, ce, q)
		}
	}
}

// TestCompiledEnvBindings checks that only sentences compile: a free
// variable and a region outside the schema are compile errors, even where
// the reference would short-circuit past the unknown region.
func TestCompiledEnvBindings(t *testing.T) {
	_, ce := compiledOn(t, map[string]region.Region{"P": region.Rect(0, 0, 4, 4)})
	if _, err := ce.EvalPoint(In{"P", "zz"}); err == nil {
		t.Fatal("free variable: want an error")
	}
	if _, err := ce.EvalPoint(PExists{[]string{"u"}, In{"NoSuch", "u"}}); err == nil {
		t.Fatal("unknown region: want an error")
	}
	lazy := POr{[]PointFormula{PAnd{}, PExists{[]string{"u"}, In{"NoSuch", "u"}}}}
	if _, err := ce.EvalPoint(lazy); err == nil {
		t.Fatal("unknown region behind a true disjunct: want an error")
	}
}

// TestCompiledVarSlotCap checks the 64-slot cap: a block binding 64
// variables compiles, one binding 65 is an error.
func TestCompiledVarSlotCap(t *testing.T) {
	_, ce := compiledOn(t, map[string]region.Region{"P": region.Rect(0, 0, 4, 4)})
	block := func(n int) PointFormula {
		vars := make([]string, n)
		conj := make([]PointFormula, n)
		for i := range vars {
			vars[i] = fmt.Sprintf("v%d", i)
			conj[i] = In{"P", vars[i]}
		}
		return PExists{vars, PAnd{conj}}
	}
	if got, err := ce.EvalPoint(block(maxVarSlots)); err != nil || !got {
		t.Fatalf("depth %d: got %v, %v; want true", maxVarSlots, got, err)
	}
	if _, err := ce.EvalPoint(block(maxVarSlots + 1)); err == nil {
		t.Fatalf("depth %d: want an error", maxVarSlots+1)
	}
}

// TestCompiledSiblingBlocksShareSlots checks that slots are numbered by
// binding depth: a conjunction of 70 sibling one-variable blocks, and its
// ∀/∨ dual, are depth 1 and compile, and agree with the reference.
func TestCompiledSiblingBlocksShareSlots(t *testing.T) {
	ev, ce := compiledOn(t, map[string]region.Region{
		"P": region.Rect(0, 0, 4, 4),
		"Q": region.Rect(2, 2, 6, 6),
	})
	const n = 70
	exists := make([]PointFormula, n)
	forall := make([]PointFormula, n)
	for i := range exists {
		v := fmt.Sprintf("v%d", i)
		r := []string{"P", "Q"}[i%2]
		exists[i] = PExists{[]string{v}, In{r, v}}
		forall[i] = PForall{[]string{v}, PNot{In{r, v}}}
	}
	if !agree(t, ev, ce, PAnd{exists}) {
		t.Error("every sibling block has a witness; the conjunction should hold")
	}
	if agree(t, ev, ce, POr{forall}) {
		t.Error("P and Q are nonempty; no ∀¬in disjunct should hold")
	}
}

func TestQuantifierPlannerDecisions(t *testing.T) {
	_, ce := compiledOn(t, map[string]region.Region{
		"Small": region.Rect(0, 0, 1, 1),
		"Big":   region.Rect(-10, -10, 10, 10),
	})
	// ∃u,v: Big(u) ∧ Small(v) ∧ u <x v — the planner should enumerate v
	// first (fewer Small witnesses) and collapse the inner level.
	f := PExists{[]string{"u", "v"}, PAnd{[]PointFormula{
		In{"Big", "u"}, In{"Small", "v"}, LessX{"u", "v"},
	}}}
	c := &compiler{ce: ce, scope: map[string][]int{}}
	root, err := c.compile(f, false)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	e, ok := root.(*cexists)
	if !ok {
		t.Fatalf("root is %T, want *cexists", root)
	}
	if len(e.plan.levels) != 2 {
		t.Fatalf("plan has %d levels, want 2", len(e.plan.levels))
	}
	// Slot 0 is u, slot 1 is v; selectivity must put v first.
	if e.plan.levels[0].slot != 1 {
		t.Errorf("planner enumerated slot %d first, want the Small-restricted 1", e.plan.levels[0].slot)
	}
	if c.reordered != 1 {
		t.Errorf("reordered = %d, want 1", c.reordered)
	}
	if len(e.plan.levels[1].residual) != 0 {
		t.Errorf("innermost level has %d residual conjuncts, want 0 (bitset collapse)", len(e.plan.levels[1].residual))
	}
	first, second := e.plan.levels[0], e.plan.levels[1]
	if first.static == nil || second.static == nil {
		t.Fatal("both levels should carry static restriction columns")
	}
	if first.static.popcount() >= second.static.popcount() {
		t.Errorf("level order not by selectivity: %d then %d candidates",
			first.static.popcount(), second.static.popcount())
	}
	// The whole formula still evaluates correctly after planning.
	got := ce.evalNode(root, []int{-1, -1})
	if !got {
		t.Error("∃u,v Big(u) ∧ Small(v) ∧ u<x v should hold")
	}
	// Hoisting: a conjunct not mentioning the inner block variable leaves
	// the inner loop.
	c2 := &compiler{ce: ce, scope: map[string][]int{}}
	g := PExists{[]string{"u"}, PAnd{[]PointFormula{
		In{"Big", "u"},
		PExists{[]string{"w"}, PAnd{[]PointFormula{In{"Small", "w"}, InInterior{"Big", "u"}}}},
	}}}
	if _, err := c2.compile(g, false); err != nil {
		t.Fatalf("compile: %v", err)
	}
	if c2.hoisted == 0 {
		t.Error("InInterior(Big,u) should be hoisted out of the ∃w block")
	}
}

func TestCompiledConcurrentUse(t *testing.T) {
	ev, ce := compiledOn(t, map[string]region.Region{
		"P": region.Rect(0, 0, 4, 4),
		"Q": region.Rect(2, 2, 6, 6),
	})
	q := QueryBoundaryOnlyIntersection("P", "Q")
	want := mustPoint(t, ev, q)
	done := make(chan bool, 8)
	for g := 0; g < 8; g++ {
		go func() {
			ok := true
			for i := 0; i < 50; i++ {
				got, err := ce.EvalPoint(q)
				if err != nil || got != want {
					ok = false
				}
			}
			done <- ok
		}()
	}
	for g := 0; g < 8; g++ {
		if !<-done {
			t.Fatal("concurrent compiled evaluation diverged")
		}
	}
}
