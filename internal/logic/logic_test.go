package logic

import (
	"testing"

	"repro/internal/relational"
)

// pathGraph builds a structure with a directed path 0→1→…→n-1 in relation E
// and a unary relation U holding the first k elements.
func pathGraph(n, k int) *relational.Structure {
	s := relational.NewStructure(n)
	e := s.AddRelation("E", 2)
	for i := 0; i+1 < n; i++ {
		e.Add(i, i+1)
	}
	u := s.AddRelation("U", 1)
	for i := 0; i < k; i++ {
		u.Add(i)
	}
	return s
}

func TestFOBasics(t *testing.T) {
	s := pathGraph(5, 3)
	// ∃x U(x)
	if !MustEval(s, ExistsOne("x", Atom("U", "x")), nil) {
		t.Error("∃x U(x) should hold")
	}
	// ∀x U(x) fails.
	if MustEval(s, ForallOne("x", Atom("U", "x")), nil) {
		t.Error("∀x U(x) should fail")
	}
	// ∀x (U(x) → ∃y E(x,y))
	f := ForallOne("x", Implies{Atom("U", "x"), ExistsOne("y", Atom("E", "x", "y"))})
	if !MustEval(s, f, nil) {
		t.Error("every U-element has an outgoing edge")
	}
	// Equality and constants.
	if !MustEval(s, Eq{C(2), C(2)}, nil) || MustEval(s, Eq{C(1), C(2)}, nil) {
		t.Error("Eq wrong")
	}
	if !MustEval(s, Less{C(1), C(2)}, nil) || MustEval(s, Less{C(2), C(2)}, nil) {
		t.Error("Less wrong")
	}
	// Free variables via env.
	if !MustEval(s, Atom("E", "x", "y"), Env{"x": 0, "y": 1}) {
		t.Error("E(0,1) should hold")
	}
	if MustEval(s, Atom("E", "x", "y"), Env{"x": 1, "y": 0}) {
		t.Error("E(1,0) should fail")
	}
	// True/False/Not/And/Or.
	if !MustEval(s, AndOf(True{}, NotF(False{})), nil) {
		t.Error("⊤ ∧ ¬⊥ should hold")
	}
	if MustEval(s, OrOf(False{}), nil) {
		t.Error("⊥ should fail")
	}
}

func TestEvalErrors(t *testing.T) {
	s := pathGraph(3, 1)
	if _, err := Eval(s, Atom("NoSuch", "x"), Env{"x": 0}); err == nil {
		t.Error("unknown relation should error")
	}
	if _, err := Eval(s, Atom("E", "x", "y"), Env{"x": 0}); err == nil {
		t.Error("unbound variable should error")
	}
	if _, err := Eval(s, Pred{"E", []Term{C(0)}}, nil); err == nil {
		t.Error("arity mismatch should error")
	}
}

func TestReachabilityFixpoint(t *testing.T) {
	s := pathGraph(6, 0)
	reach := Reachability("E", "x", "y")
	if !MustEval(s, reach, Env{"x": 0, "y": 5}) {
		t.Error("5 should be reachable from 0")
	}
	if !MustEval(s, reach, Env{"x": 5, "y": 0}) {
		t.Error("reachability is symmetrised")
	}
	// Two components: break the path.
	s2 := relational.NewStructure(6)
	e := s2.AddRelation("E", 2)
	e.Add(0, 1)
	e.Add(1, 2)
	e.Add(3, 4)
	e.Add(4, 5)
	if MustEval(s2, reach, Env{"x": 0, "y": 5}) {
		t.Error("5 should not be reachable from 0 across components")
	}
	if !MustEval(s2, reach, Env{"x": 3, "y": 5}) {
		t.Error("5 should be reachable from 3")
	}
	// Connectivity sentence: ∀x∀y reach(x,y).
	conn := Forall{[]string{"x", "y"}, reach}
	if MustEval(s2, conn, nil) {
		t.Error("disconnected graph reported connected")
	}
	if !MustEval(pathGraph(4, 0), conn, nil) {
		t.Error("path reported disconnected")
	}
}

func TestCountingAndEvenCardinality(t *testing.T) {
	for _, tc := range []struct {
		n, k int
		even bool
	}{
		{6, 0, true}, {6, 1, false}, {6, 2, true}, {6, 3, false}, {6, 6, true}, {5, 5, false},
	} {
		s := pathGraph(tc.n, tc.k)
		got := MustEval(s, EvenCardinality("U"), nil)
		if got != tc.even {
			t.Errorf("EvenCardinality with %d elements = %v, want %v", tc.k, got, tc.even)
		}
	}
	// Count term compared against a constant.
	s := pathGraph(6, 4)
	f := Eq{Count{Var: "x", Body: Atom("U", "x")}, C(4)}
	if !MustEval(s, f, nil) {
		t.Error("#x.U(x) = 4 should hold")
	}
	// Numeric quantifier: there is a number i with i = #U and i > 3.
	g := ExistsNum{[]string{"i"}, And{[]Formula{
		Eq{Var{"i"}, Count{Var: "x", Body: Atom("U", "x")}},
		Less{C(3), Var{"i"}},
	}}}
	if !MustEval(s, g, nil) {
		t.Error("numeric quantification failed")
	}
	// ForallNum: every number is ≥ 0 (trivially, not less than 0).
	h := ForallNum{[]string{"i"}, Not{Less{Var{"i"}, C(0)}}}
	if !MustEval(s, h, nil) {
		t.Error("ForallNum failed")
	}
}

func TestPFPWhileQueries(t *testing.T) {
	s := pathGraph(5, 0)
	// PFP that converges: same stage operator as inflationary transitive
	// closure but written to be cumulative explicitly.
	body := Or{[]Formula{
		Eq{Var{"a"}, Var{"b"}},
		Pred{"_r", []Term{Var{"a"}, Var{"b"}}},
		Exists{[]string{"z"}, And{[]Formula{
			Pred{"_r", []Term{Var{"a"}, Var{"z"}}},
			Pred{"E", []Term{Var{"z"}, Var{"b"}}},
		}}},
	}}
	pfp := PFP{Rel: "_r", Vars: []string{"a", "b"}, Body: body, Args: []Term{Var{"x"}, Var{"y"}}}
	if !MustEval(s, pfp, Env{"x": 0, "y": 4}) {
		t.Error("PFP transitive closure should reach 4 from 0")
	}
	if MustEval(s, pfp, Env{"x": 4, "y": 0}) {
		t.Error("directed closure should not reach 0 from 4")
	}
	// PFP that oscillates (complement of itself): empty result by convention.
	osc := PFP{
		Rel:  "_s",
		Vars: []string{"a"},
		Body: Not{Pred{"_s", []Term{Var{"a"}}}},
		Args: []Term{Var{"x"}},
	}
	if MustEval(s, osc, Env{"x": 0}) {
		t.Error("oscillating PFP should be empty")
	}
}

func TestNestedFixpoints(t *testing.T) {
	// Elements reachable from 0 within the subgraph of U-elements.
	s := relational.NewStructure(6)
	e := s.AddRelation("E", 2)
	e.Add(0, 1)
	e.Add(1, 2)
	e.Add(2, 3)
	u := s.AddRelation("U", 1)
	for _, x := range []int{0, 1, 3} {
		u.Add(x)
	}
	body := Or{[]Formula{
		And{[]Formula{Eq{Var{"a"}, Var{"b"}}, Pred{"U", []Term{Var{"a"}}}}},
		Exists{[]string{"z"}, And{[]Formula{
			Pred{"_ru", []Term{Var{"a"}, Var{"z"}}},
			Pred{"E", []Term{Var{"z"}, Var{"b"}}},
			Pred{"U", []Term{Var{"b"}}},
		}}},
	}}
	f := IFP{Rel: "_ru", Vars: []string{"a", "b"}, Body: body, Args: []Term{Var{"x"}, Var{"y"}}}
	if !MustEval(s, f, Env{"x": 0, "y": 1}) {
		t.Error("1 reachable from 0 within U")
	}
	if MustEval(s, f, Env{"x": 0, "y": 3}) {
		t.Error("3 not reachable within U (2 is missing from U)")
	}
}

func TestStringRendering(t *testing.T) {
	fs := []Formula{
		True{}, False{},
		Atom("E", "x", "y"),
		Eq{V("x"), C(3)},
		Less{C(1), Add{V("i"), C(2)}},
		Not{True{}},
		AndOf(True{}, False{}),
		OrOf(),
		Implies{True{}, False{}},
		Exists{[]string{"x"}, True{}},
		Forall{[]string{"x"}, True{}},
		ExistsNum{[]string{"i"}, True{}},
		ForallNum{[]string{"i"}, True{}},
		Reachability("E", "x", "y"),
		EvenCardinality("U"),
		PFP{Rel: "R", Vars: []string{"x"}, Body: True{}, Args: []Term{C(0)}},
	}
	for _, f := range fs {
		if f.String() == "" {
			t.Errorf("empty String for %T", f)
		}
	}
	if (Count{Var: "x", Body: True{}}).String() == "" {
		t.Error("Count String empty")
	}
}
