package logic

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/relational"
)

// Env is a variable assignment.
type Env map[string]int

// clone copies the environment.
func (e Env) clone() Env {
	out := make(Env, len(e)+2)
	for k, v := range e {
		out[k] = v
	}
	return out
}

// evaluator carries the evaluation context: the structure and the fixpoint
// relations currently being computed.
type evaluator struct {
	s       *relational.Structure
	fixRels map[string]*relational.Relation
	// maxPFPStates bounds partial-fixpoint iteration (cycle detection makes
	// this a safety net only).
	maxPFPStates int
}

// Eval evaluates a sentence (or a formula under the given environment) on the
// structure.  It returns an error for malformed formulas (unknown relations,
// unbound variables, arity mismatches).
func Eval(s *relational.Structure, f Formula, env Env) (result bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("logic: %v", r)
		}
	}()
	if env == nil {
		env = Env{}
	}
	ev := &evaluator{s: s, fixRels: map[string]*relational.Relation{}, maxPFPStates: 1 << 20}
	return ev.eval(f, env), nil
}

// MustEval is Eval that panics on error.
func MustEval(s *relational.Structure, f Formula, env Env) bool {
	r, err := Eval(s, f, env)
	if err != nil {
		panic(err)
	}
	return r
}

func (ev *evaluator) eval(f Formula, env Env) bool {
	switch g := f.(type) {
	case True:
		return true
	case False:
		return false
	case Pred:
		return ev.evalPred(g, env)
	case Eq:
		return ev.term(g.L, env) == ev.term(g.R, env)
	case Less:
		return ev.term(g.L, env) < ev.term(g.R, env)
	case Not:
		return !ev.eval(g.F, env)
	case And:
		for _, s := range g.Fs {
			if !ev.eval(s, env) {
				return false
			}
		}
		return true
	case Or:
		for _, s := range g.Fs {
			if ev.eval(s, env) {
				return true
			}
		}
		return false
	case Implies:
		return !ev.eval(g.L, env) || ev.eval(g.R, env)
	case Exists:
		return ev.quant(g.Vars, g.Body, env, ev.s.Size, true)
	case Forall:
		return ev.quant(g.Vars, g.Body, env, ev.s.Size, false)
	case ExistsNum:
		return ev.quant(g.Vars, g.Body, env, ev.s.Size+1, true)
	case ForallNum:
		return ev.quant(g.Vars, g.Body, env, ev.s.Size+1, false)
	case IFP:
		rel := ev.inflationaryFixpoint(g, env)
		return rel.Has(ev.terms(g.Args, env)...)
	case PFP:
		rel, ok := ev.partialFixpoint(g, env)
		if !ok {
			return false
		}
		return rel.Has(ev.terms(g.Args, env)...)
	default:
		panic(fmt.Sprintf("unknown formula %T", f))
	}
}

// quant evaluates a block of quantified variables ranging over 0…limit-1.
// existential selects ∃ vs ∀ semantics.
func (ev *evaluator) quant(vars []string, body Formula, env Env, limit int, existential bool) bool {
	if len(vars) == 0 {
		return ev.eval(body, env)
	}
	v, rest := vars[0], vars[1:]
	saved, had := env[v]
	defer func() {
		if had {
			env[v] = saved
		} else {
			delete(env, v)
		}
	}()
	for x := 0; x < limit; x++ {
		env[v] = x
		r := ev.quant(rest, body, env, limit, existential)
		if existential && r {
			return true
		}
		if !existential && !r {
			return false
		}
	}
	return !existential
}

func (ev *evaluator) evalPred(p Pred, env Env) bool {
	args := ev.terms(p.Args, env)
	if rel, ok := ev.fixRels[p.Name]; ok {
		return rel.Has(args...)
	}
	rel := ev.s.Relation(p.Name)
	if rel == nil {
		panic(fmt.Sprintf("unknown relation %q", p.Name))
	}
	if rel.Arity != len(args) {
		panic(fmt.Sprintf("relation %q has arity %d, got %d arguments", p.Name, rel.Arity, len(args)))
	}
	return rel.Has(args...)
}

func (ev *evaluator) terms(ts []Term, env Env) []int {
	out := make([]int, len(ts))
	for i, t := range ts {
		out[i] = ev.term(t, env)
	}
	return out
}

func (ev *evaluator) term(t Term, env Env) int {
	switch g := t.(type) {
	case Var:
		v, ok := env[g.Name]
		if !ok {
			panic(fmt.Sprintf("unbound variable %q", g.Name))
		}
		return v
	case Const:
		return g.Value
	case Add:
		return ev.term(g.L, env) + ev.term(g.R, env)
	case Count:
		n := 0
		saved, had := env[g.Var]
		for x := 0; x < ev.s.Size; x++ {
			env[g.Var] = x
			if ev.eval(g.Body, env) {
				n++
			}
		}
		if had {
			env[g.Var] = saved
		} else {
			delete(env, g.Var)
		}
		return n
	default:
		panic(fmt.Sprintf("unknown term %T", t))
	}
}

// inflationaryFixpoint computes the inflationary fixpoint relation of an IFP
// operator under the given environment for its free variables.
func (ev *evaluator) inflationaryFixpoint(f IFP, env Env) *relational.Relation {
	cur := relational.NewRelation(f.Rel, len(f.Vars))
	for {
		added := ev.applyStage(f.Rel, f.Vars, f.Body, env, cur, true)
		if !added {
			return cur
		}
	}
}

// partialFixpoint computes the partial fixpoint (while) semantics: iterate the
// stage operator non-cumulatively until a fixpoint; returns ok=false if the
// iteration cycles without converging.
func (ev *evaluator) partialFixpoint(f PFP, env Env) (*relational.Relation, bool) {
	cur := relational.NewRelation(f.Rel, len(f.Vars))
	seen := map[string]bool{relKey(cur): true}
	for steps := 0; steps < ev.maxPFPStates; steps++ {
		next := relational.NewRelation(f.Rel, len(f.Vars))
		ev.fixRels[f.Rel] = cur
		ev.forAllTuples(len(f.Vars), func(tuple []int) {
			inner := env.clone()
			for i, v := range f.Vars {
				inner[v] = tuple[i]
			}
			if ev.eval(f.Body, inner) {
				next.Add(tuple...)
			}
		})
		delete(ev.fixRels, f.Rel)
		if next.Equal(cur) {
			return cur, true
		}
		key := relKey(next)
		if seen[key] {
			return nil, false // cycle without fixpoint: PFP is empty
		}
		seen[key] = true
		cur = next
	}
	return nil, false
}

// applyStage adds to cur all tuples satisfying body with cur bound to rel
// name; returns whether anything was added.  Inflationary semantics.
func (ev *evaluator) applyStage(rel string, vars []string, body Formula, env Env, cur *relational.Relation, inflate bool) bool {
	prev, hadPrev := ev.fixRels[rel]
	ev.fixRels[rel] = cur
	var toAdd [][]int
	ev.forAllTuples(len(vars), func(tuple []int) {
		if cur.Has(tuple...) {
			return
		}
		inner := env.clone()
		for i, v := range vars {
			inner[v] = tuple[i]
		}
		if ev.eval(body, inner) {
			cp := make([]int, len(tuple))
			copy(cp, tuple)
			toAdd = append(toAdd, cp)
		}
	})
	if hadPrev {
		ev.fixRels[rel] = prev
	} else {
		delete(ev.fixRels, rel)
	}
	for _, t := range toAdd {
		cur.Add(t...)
	}
	return len(toAdd) > 0
}

// forAllTuples enumerates all candidate tuples for a fixpoint relation.  The
// range is 0…Size inclusive so that fixpoint relations over the numeric sort
// (whose values go up to Size, e.g. cardinalities) are fully covered; bodies
// of element-sorted fixpoint relations simply reject the extra value.
func (ev *evaluator) forAllTuples(arity int, visit func([]int)) {
	tuple := make([]int, arity)
	var rec func(i int)
	rec = func(i int) {
		if i == arity {
			visit(tuple)
			return
		}
		for x := 0; x <= ev.s.Size; x++ {
			tuple[i] = x
			rec(i + 1)
		}
	}
	rec(0)
}

func relKey(r *relational.Relation) string {
	tuples := r.Tuples()
	keys := make([]string, len(tuples))
	for i, t := range tuples {
		keys[i] = t.Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, "|")
}

// --- common derived queries ---------------------------------------------------

// Reachability returns a fixpoint formula expressing that variable "y" is
// reachable from variable "x" through the (symmetrised) binary relation rel.
// Both x and y are free.
func Reachability(rel, x, y string) Formula {
	// R(a,b) := a=b ∨ ∃z (R(a,z) ∧ (rel(z,b) ∨ rel(b,z)))
	body := Or{[]Formula{
		Eq{Var{"a"}, Var{"b"}},
		Exists{[]string{"z"}, And{[]Formula{
			Pred{"_reach", []Term{Var{"a"}, Var{"z"}}},
			Or{[]Formula{
				Pred{rel, []Term{Var{"z"}, Var{"b"}}},
				Pred{rel, []Term{Var{"b"}, Var{"z"}}},
			}},
		}}},
	}}
	return IFP{Rel: "_reach", Vars: []string{"a", "b"}, Body: body, Args: []Term{Var{x}, Var{y}}}
}

// EvenCardinality returns a fixpoint+counting sentence expressing that the
// number of elements satisfying the unary relation rel is even — the paper's
// canonical example of a query beyond fixpoint but within fixpoint+counting.
func EvenCardinality(rel string) Formula {
	// Even(i) := i = 0 ∨ ∃j (Even(j) ∧ i = j + 2), evaluated at #x.rel(x).
	body := Or{[]Formula{
		Eq{Var{"i"}, Const{0}},
		ExistsNum{[]string{"j"}, And{[]Formula{
			Pred{"_even", []Term{Var{"j"}}},
			Eq{Var{"i"}, Add{Var{"j"}, Const{2}}},
		}}},
	}}
	return IFP{
		Rel:  "_even",
		Vars: []string{"i"},
		Body: body,
		Args: []Term{Count{Var: "x", Body: Pred{rel, []Term{Var{"x"}}}}},
	}
}
