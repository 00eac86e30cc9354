package engine

import (
	"fmt"
	"time"

	"repro/internal/pointfo"
	"repro/internal/spatial"
)

// The compiled-evaluator cache memoizes {sample, membership matrix,
// coordinate ranks} per instance content address, beside the invariant
// cache: both cache derivatives of the arrangement, the expensive object
// the paper's economy avoids recomputing.  Compiled evaluators are
// immutable and concurrency-safe, so one cached evaluator serves any
// number of concurrent queries; core databases reach the cache through
// core.EvalSource, which also routes the small helper instances realised
// by the translations (inverted linear instances, representative cones).
//
// Like the invariant cache it is an lru.Sharded, so one sample build
// serves concurrent misses.

// DefaultEvaluatorCapacity bounds the compiled-evaluator cache when no
// option is given.
const DefaultEvaluatorCapacity = 128

// WithEvaluatorCapacity bounds the number of cached compiled evaluators.
// Like WithCacheCapacity, capacities up to 16 are exact and larger ones
// round up to a multiple of 16 (Stats reports the effective figure).
// Values < 1 are treated as 1.
func WithEvaluatorCapacity(n int) Option {
	return func(e *Engine) { e.evalCapacity = n }
}

// CompiledEvaluator returns the compiled evaluator for the instance,
// building it at most once per instance content.  It implements
// core.EvalSource.
func (e *Engine) CompiledEvaluator(inst *spatial.Instance) (*pointfo.CompiledEvaluator, error) {
	key, err := e.Key(inst)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	ce, _, err := e.evaluators.GetOrBuild(key, func() (*pointfo.CompiledEvaluator, error) {
		start := time.Now()
		defer func() { e.m.evalBuild.ObserveDuration(time.Since(start)) }()
		return pointfo.CompileEvaluator(inst)
	})
	return ce, err
}
