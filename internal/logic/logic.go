// Package logic implements the query languages the paper evaluates over
// topological invariants: first-order logic (FO), inflationary fixpoint logic
// (FO+IFP, the "fixpoint queries"), partial fixpoint logic (PFP, the "while
// queries"), and their extensions with counting.
//
// Formulas are evaluated over relational structures (package relational).
// Element variables range over the structure's universe {0,…,n-1}; number
// variables range over {0,…,n}, the auxiliary ordered numeric domain used by
// the counting quantifiers of fixpoint+counting.  The numeric domain carries
// the order Less and the term-level operations Add and Count (the cardinality
// operator #x.φ).
//
// Following the paper, the languages are used on invariants without assuming
// any order on the element sort; the numeric sort is ordered.  The evaluator
// does not enforce this discipline syntactically — order-invariance of the
// queries written against invariants is established by the results being
// reproduced, not by the type system.
package logic

import (
	"fmt"
	"strings"
)

// Term is an element- or number-valued term.
type Term interface {
	isTerm()
	String() string
}

// Var is a variable (element or number, by usage).
type Var struct{ Name string }

// Const is an integer constant (an element ID or a number).
type Const struct{ Value int }

// Count is the cardinality term #x.φ: the number of elements x of the
// universe satisfying φ under the current assignment.
type Count struct {
	Var  string
	Body Formula
}

// Add is numeric addition of two terms.
type Add struct{ L, R Term }

func (Var) isTerm()   {}
func (Const) isTerm() {}
func (Count) isTerm() {}
func (Add) isTerm()   {}

func (v Var) String() string   { return v.Name }
func (c Const) String() string { return fmt.Sprintf("%d", c.Value) }
func (c Count) String() string { return fmt.Sprintf("#%s.%s", c.Var, c.Body) }
func (a Add) String() string   { return fmt.Sprintf("(%s + %s)", a.L, a.R) }

// Formula is a logical formula.
type Formula interface {
	isFormula()
	String() string
}

// True is the always-true formula.
type True struct{}

// False is the always-false formula.
type False struct{}

// Pred is an atomic formula R(t1,…,tk).  Inside a fixpoint operator, a Pred
// whose name matches the fixpoint relation refers to the relation being
// computed.
type Pred struct {
	Name string
	Args []Term
}

// Eq is term equality.
type Eq struct{ L, R Term }

// Less is the numeric order t1 < t2 (also usable on element IDs when an
// ordered copy of the structure is being manipulated, as in Theorem 3.4).
type Less struct{ L, R Term }

// Not is negation.
type Not struct{ F Formula }

// And is conjunction of any number of formulas.
type And struct{ Fs []Formula }

// Or is disjunction of any number of formulas.
type Or struct{ Fs []Formula }

// Implies is material implication.
type Implies struct{ L, R Formula }

// Exists quantifies element variables existentially.
type Exists struct {
	Vars []string
	Body Formula
}

// Forall quantifies element variables universally.
type Forall struct {
	Vars []string
	Body Formula
}

// ExistsNum quantifies number variables (range 0…n) existentially.
type ExistsNum struct {
	Vars []string
	Body Formula
}

// ForallNum quantifies number variables universally.
type ForallNum struct {
	Vars []string
	Body Formula
}

// IFP is the inflationary fixpoint operator [IFP_{Rel,Vars} Body](Args): the
// relation Rel is computed as the inflationary fixpoint of Body and the atom
// holds if Args is in the fixpoint.
type IFP struct {
	Rel  string
	Vars []string
	Body Formula
	Args []Term
}

// PFP is the partial fixpoint operator (the "while" queries): Body is
// iterated non-cumulatively; if a fixpoint is reached, Args is tested against
// it, otherwise the result is empty (standard PFP semantics).
type PFP struct {
	Rel  string
	Vars []string
	Body Formula
	Args []Term
}

func (True) isFormula()      {}
func (False) isFormula()     {}
func (Pred) isFormula()      {}
func (Eq) isFormula()        {}
func (Less) isFormula()      {}
func (Not) isFormula()       {}
func (And) isFormula()       {}
func (Or) isFormula()        {}
func (Implies) isFormula()   {}
func (Exists) isFormula()    {}
func (Forall) isFormula()    {}
func (ExistsNum) isFormula() {}
func (ForallNum) isFormula() {}
func (IFP) isFormula()       {}
func (PFP) isFormula()       {}

func (True) String() string  { return "⊤" }
func (False) String() string { return "⊥" }
func (p Pred) String() string {
	args := make([]string, len(p.Args))
	for i, a := range p.Args {
		args[i] = a.String()
	}
	return p.Name + "(" + strings.Join(args, ",") + ")"
}
func (e Eq) String() string   { return fmt.Sprintf("%s = %s", e.L, e.R) }
func (l Less) String() string { return fmt.Sprintf("%s < %s", l.L, l.R) }
func (n Not) String() string  { return "¬(" + n.F.String() + ")" }
func (a And) String() string  { return joinFormulas(a.Fs, " ∧ ") }
func (o Or) String() string   { return joinFormulas(o.Fs, " ∨ ") }
func (i Implies) String() string {
	return "(" + i.L.String() + " → " + i.R.String() + ")"
}
func (e Exists) String() string    { return "∃" + strings.Join(e.Vars, ",") + "." + e.Body.String() }
func (f Forall) String() string    { return "∀" + strings.Join(f.Vars, ",") + "." + f.Body.String() }
func (e ExistsNum) String() string { return "∃#" + strings.Join(e.Vars, ",") + "." + e.Body.String() }
func (f ForallNum) String() string { return "∀#" + strings.Join(f.Vars, ",") + "." + f.Body.String() }
func (f IFP) String() string {
	return fmt.Sprintf("[IFP_{%s,%s} %s](%s)", f.Rel, strings.Join(f.Vars, ","), f.Body, termList(f.Args))
}
func (f PFP) String() string {
	return fmt.Sprintf("[PFP_{%s,%s} %s](%s)", f.Rel, strings.Join(f.Vars, ","), f.Body, termList(f.Args))
}

func joinFormulas(fs []Formula, sep string) string {
	if len(fs) == 0 {
		return "⊤"
	}
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = f.String()
	}
	return "(" + strings.Join(parts, sep) + ")"
}

func termList(ts []Term) string {
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.String()
	}
	return strings.Join(parts, ",")
}

// --- convenience constructors ------------------------------------------------

// V returns a variable term.
func V(name string) Var { return Var{name} }

// C returns a constant term.
func C(v int) Const { return Const{v} }

// AndOf builds a conjunction.
func AndOf(fs ...Formula) Formula { return And{fs} }

// OrOf builds a disjunction.
func OrOf(fs ...Formula) Formula { return Or{fs} }

// NotF builds a negation.
func NotF(f Formula) Formula { return Not{f} }

// Atom builds an atomic formula over variables.
func Atom(rel string, vars ...string) Pred {
	args := make([]Term, len(vars))
	for i, v := range vars {
		args[i] = Var{v}
	}
	return Pred{Name: rel, Args: args}
}

// ExistsOne quantifies a single element variable.
func ExistsOne(v string, body Formula) Formula { return Exists{Vars: []string{v}, Body: body} }

// ForallOne quantifies a single element variable.
func ForallOne(v string, body Formula) Formula { return Forall{Vars: []string{v}, Body: body} }
