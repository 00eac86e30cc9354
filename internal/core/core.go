// Package core ties the substrates together into the paper's headline
// pipeline: computing the topological invariant of a spatial database and
// answering topological queries against the invariant instead of the raw
// spatial data, with a selectable evaluation strategy matching the options
// discussed in the paper's practical-considerations section:
//
//	(i)   Direct              — evaluate the query on the spatial instance;
//	(ii)  ViaInvariantFO      — translate to a first-order query on the
//	                            invariant (single-region schemas, Theorem 4.9);
//	(iii) ViaInvariantFixpoint — answer the query on the invariant
//	                            (Theorem 4.1/4.2) by realising it, as (iv)
//	                            does;
//	(iv)  ViaLinearized       — re-embed the invariant as a small linear
//	                            instance and evaluate the query on it.
package core

import (
	"fmt"

	"repro/internal/invariant"
	"repro/internal/pointfo"
	"repro/internal/queryl"
	"repro/internal/spatial"
	"repro/internal/translate"
)

// Strategy selects how a topological query is evaluated.
type Strategy int

const (
	// Direct evaluates the query on the raw spatial instance.
	Direct Strategy = iota
	// ViaInvariantFO translates the query to first-order logic on the
	// invariant (single-region schemas only).
	ViaInvariantFO
	// ViaInvariantFixpoint answers the query on the invariant (Theorem
	// 4.1/4.2) by the same realisation as ViaLinearized; the two names stay
	// apart in reports and metrics.
	ViaInvariantFixpoint
	// ViaLinearized re-embeds the invariant as a linear instance and
	// evaluates the query there.
	ViaLinearized
	// Auto picks the strategy per instance: ViaInvariantFixpoint when the
	// invariant is in the class the fixpoint machinery can invert (every
	// skeleton component a free loop or an isolated vertex), Direct
	// otherwise.  ViaInvariantFixpoint hard-errors outside that class —
	// e.g. land-use maps whose shared parcel borders create junction
	// vertices, or hydrography polylines with degree-1 endpoints — so Auto
	// is the strategy a front end can use unconditionally: every query is
	// answered, on the invariant whenever the theory allows it.
	Auto
)

func (s Strategy) String() string {
	switch s {
	case Direct:
		return "direct"
	case ViaInvariantFO:
		return "via-invariant-FO"
	case ViaInvariantFixpoint:
		return "via-invariant-fixpoint"
	case ViaLinearized:
		return "via-linearized"
	case Auto:
		return "auto"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// EvalSource supplies compiled evaluators for instances.  The engine
// implements it with a sharded per-instance cache, so repeated asks — and
// the helper instances the translations realise — reuse {sample, membership
// matrix, ranks} instead of rebuilding arrangements.
type EvalSource interface {
	CompiledEvaluator(inst *spatial.Instance) (*pointfo.CompiledEvaluator, error)
}

// Database wraps a spatial instance together with its (lazily computed)
// topological invariant and evaluators.
type Database struct {
	inst *spatial.Instance
	inv  *invariant.Invariant
	ce   *pointfo.CompiledEvaluator
	src  EvalSource
}

// SetEvalSource injects a shared compiled-evaluator source (the engine's
// cache).  Without one, evaluators are compiled per database.
func (db *Database) SetEvalSource(src EvalSource) { db.src = src }

// Open prepares a database for the instance.  It does not re-check the
// geometry: a spatial.Instance is valid by construction (spatial.Instance.Set
// validates every region), so opening costs nothing per ask.  The error
// result is always nil and is kept for API stability.
func Open(inst *spatial.Instance) (*Database, error) {
	return &Database{inst: inst}, nil
}

// OpenWith prepares a database seeded with an already-computed invariant, so
// invariant-based strategies skip the arrangement construction entirely.  The
// caller is responsible for inv actually being top(inst) — the engine's
// content-addressed cache guarantees this by keying invariants on the hash of
// the encoded instance.  A nil inv behaves like Open.
func OpenWith(inst *spatial.Instance, inv *invariant.Invariant) (*Database, error) {
	return &Database{inst: inst, inv: inv}, nil
}

// Invariant computes (once) and returns the topological invariant.
func (db *Database) Invariant() (*invariant.Invariant, error) {
	if db.inv == nil {
		inv, err := invariant.Compute(db.inst)
		if err != nil {
			return nil, err
		}
		db.inv = inv
	}
	return db.inv, nil
}

func (db *Database) compiledFor(inst *spatial.Instance) (*pointfo.CompiledEvaluator, error) {
	if db.src != nil {
		return db.src.CompiledEvaluator(inst)
	}
	return pointfo.CompileEvaluator(inst)
}

// evalSentence answers q on an instance with the compiled bitset evaluator,
// going through the evaluator source when one is set.
func (db *Database) evalSentence(inst *spatial.Instance, q pointfo.PointFormula) (bool, error) {
	ce, err := db.compiledFor(inst)
	if err != nil {
		return false, err
	}
	return ce.EvalPoint(q)
}

func (db *Database) evaluator() (*pointfo.CompiledEvaluator, error) {
	if db.ce == nil {
		ce, err := db.compiledFor(db.inst)
		if err != nil {
			return nil, err
		}
		db.ce = ce
	}
	return db.ce, nil
}

// Resolve maps Auto to the concrete strategy this database's instance
// supports (ResolveAuto).  Concrete strategies resolve to themselves.
func (db *Database) Resolve(s Strategy) Strategy {
	if s != Auto {
		return s
	}
	return ResolveAuto(db.Invariant())
}

// ResolveAuto is Auto's policy, given the outcome of computing an
// instance's invariant: ViaInvariantFixpoint when the invariant is
// invertible, Direct otherwise.  A failed computation also resolves to
// Direct — direct evaluation never needs the invariant, so it remains
// available.
func ResolveAuto(inv *invariant.Invariant, err error) Strategy {
	if err != nil || !translate.CanInvert(inv) {
		return Direct
	}
	return ViaInvariantFixpoint
}

// Ask evaluates a topological Boolean query with the given strategy.
func (db *Database) Ask(q pointfo.PointFormula, s Strategy) (bool, error) {
	if s == Auto {
		return db.Ask(q, db.Resolve(s))
	}
	switch s {
	case Direct:
		ce, err := db.evaluator()
		if err != nil {
			return false, err
		}
		return ce.EvalPoint(q)
	case ViaInvariantFO:
		if db.inst.Schema().Size() != 1 {
			return false, fmt.Errorf("core: the FO-on-invariant strategy requires a single-region schema (Theorem 4.9); this schema has %d regions", db.inst.Schema().Size())
		}
		inv, err := db.Invariant()
		if err != nil {
			return false, err
		}
		fo := translate.ToFOQuery(db.inst.Schema().Names()[0], q)
		fo.Eval = db.evalSentence
		return fo.EvaluateOnInvariant(inv)
	case ViaInvariantFixpoint, ViaLinearized:
		// Both realise top(I) as a linear instance J and evaluate q on J.
		inv, err := db.Invariant()
		if err != nil {
			return false, err
		}
		return translate.ToFixpointQuery(q, db.inst.AllConnected()).EvaluateOnInvariantUsing(inv, db.evalSentence)
	default:
		return false, fmt.Errorf("core: unknown strategy %v", s)
	}
}

// AskText parses src in the concrete query syntax of package queryl, resolves
// its region names against the database's schema, and evaluates it with the
// given strategy.  Parse and resolution failures are *queryl.Error values
// carrying the byte offset of the offending token.
func (db *Database) AskText(src string, s Strategy) (bool, error) {
	q, err := queryl.Parse(src)
	if err != nil {
		return false, err
	}
	if err := q.CheckSchema(db.inst.Schema()); err != nil {
		return false, err
	}
	return db.Ask(q.Formula, s)
}

// TopologicallyEquivalent reports whether two instances are topologically
// equivalent, by comparing their invariants (Theorem 2.1(ii)).
func TopologicallyEquivalent(a, b *spatial.Instance) (bool, error) {
	ia, err := invariant.Compute(a)
	if err != nil {
		return false, err
	}
	ib, err := invariant.Compute(b)
	if err != nil {
		return false, err
	}
	return invariant.Isomorphic(ia, ib), nil
}
