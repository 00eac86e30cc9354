package pointfo

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/spatial"
)

// This file holds the tree-walk reference evaluator that the differential
// tests compare CompiledEvaluator against.  It builds the same sample as the
// compiled path, so quantifiers range over the same cell witnesses, and
// replaces the membership matrix and the quantifier plans with the
// definition: every In/InInterior atom is an exact point-in-region test, every
// order atom compares exact coordinates, and every quantifier enumerates the
// whole sample.  It also accepts formulas with free variables bound through an
// environment.

// Evaluator evaluates point-language sentences on one instance by walking
// the formula tree over the sample and asking the geometry at every atom.
type Evaluator struct {
	inst   *spatial.Instance
	sample *Sample
	// memo, when non-nil, keeps each membership answer the geometry gave,
	// so an atom re-asked for the same point is a lookup.  The fuzz
	// fixtures set it: a depth-6 sentence walks up to 14^6 tuples, which
	// must stay inside the fuzzing engine's 10 s per-input deadline.
	// Caching a pure function does not change what the walk computes.
	// BenchmarkEvalDepth leaves it nil, so its tree rows still pay the
	// geometry at every atom.
	memo map[memoKey]bool
}

type memoKey struct {
	interior bool
	region   string
	p        geom.Point
}

// member asks the geometry whether p lies in region (in its interior when
// interior is set), through the memo when there is one.
func (ev *Evaluator) member(region string, interior bool, p geom.Point) bool {
	k := memoKey{interior, region, p}
	if v, ok := ev.memo[k]; ok {
		return v
	}
	var v bool
	if interior {
		v = ev.inst.Region(region).ContainsInterior(p)
	} else {
		v = ev.inst.Contains(region, p)
	}
	if ev.memo != nil {
		ev.memo[k] = v
	}
	return v
}

// NewEvaluator prepares an evaluator for the instance (building its cell
// decomposition once).
func NewEvaluator(inst *spatial.Instance) (*Evaluator, error) {
	s, err := BuildSample(inst)
	if err != nil {
		return nil, err
	}
	return &Evaluator{inst: inst, sample: s}, nil
}

// SampleSize returns the number of representative points used.
func (ev *Evaluator) SampleSize() int { return len(ev.sample.Points) }

// EvalPoint evaluates an FO(P,<x,<y) sentence (or a formula under env).
func (ev *Evaluator) EvalPoint(f PointFormula, env map[string]geom.Point) (result bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pointfo: %v", r)
		}
	}()
	if env == nil {
		env = map[string]geom.Point{}
	}
	return ev.evalPoint(f, env), nil
}

func (ev *Evaluator) evalPoint(f PointFormula, env map[string]geom.Point) bool {
	get := func(v string) geom.Point {
		p, ok := env[v]
		if !ok {
			panic(fmt.Sprintf("unbound point variable %q", v))
		}
		return p
	}
	switch g := f.(type) {
	case In:
		if !ev.inst.Schema().Has(g.Region) {
			panic(fmt.Sprintf("unknown region %q", g.Region))
		}
		return ev.member(g.Region, false, get(g.Var))
	case InInterior:
		if !ev.inst.Schema().Has(g.Region) {
			panic(fmt.Sprintf("unknown region %q", g.Region))
		}
		return ev.member(g.Region, true, get(g.Var))
	case LessX:
		return get(g.L).X.Less(get(g.R).X)
	case LessY:
		return get(g.L).Y.Less(get(g.R).Y)
	case SamePoint:
		return get(g.L).Equal(get(g.R))
	case PNot:
		return !ev.evalPoint(g.F, env)
	case PAnd:
		for _, s := range g.Fs {
			if !ev.evalPoint(s, env) {
				return false
			}
		}
		return true
	case POr:
		for _, s := range g.Fs {
			if ev.evalPoint(s, env) {
				return true
			}
		}
		return false
	case PImplies:
		return !ev.evalPoint(g.L, env) || ev.evalPoint(g.R, env)
	case PExists:
		return ev.quantPoint(g.Vars, g.Body, env, true)
	case PForall:
		return ev.quantPoint(g.Vars, g.Body, env, false)
	default:
		panic(fmt.Sprintf("unknown formula %T", f))
	}
}

func (ev *Evaluator) quantPoint(vars []string, body PointFormula, env map[string]geom.Point, existential bool) bool {
	if len(vars) == 0 {
		return ev.evalPoint(body, env)
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
	for _, p := range ev.sample.Points {
		env[v] = p
		r := ev.quantPoint(rest, body, env, existential)
		if existential && r {
			return true
		}
		if !existential && !r {
			return false
		}
	}
	return !existential
}
