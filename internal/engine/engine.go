// Package engine is a concurrent query-evaluation service over the
// paper's pipeline: it wraps core.Database with a content-addressed
// invariant cache and a worker-pool batch evaluator.
//
// The cache is the systems counterpart of the paper's central economy —
// top(I) is much smaller than I and answers every topological query, so it is
// worth computing once and reusing.  Instances are addressed by the SHA-256
// hash of their deterministic binary encoding (package codec): two
// structurally identical instances share one cached invariant no matter how
// they were built.  Entries are bounded by an LRU policy, and concurrent
// requests for the same uncached instance are deduplicated singleflight-style
// so the arrangement is built exactly once.
//
// The invariant, compiled-evaluator and answer caches are all one type,
// lru.Sharded: sharded by the leading hex digit of the content key (up to 16
// shards, each with its own mutex, LRU list and in-flight table), so Batch
// workers hitting different instances do not serialize on one lock.
// With WithStore the engine also layers over a disk store (package store):
// a memory miss falls through to disk before recomputing, and every freshly
// computed invariant is persisted, so a restarted engine pointed at the same
// directory serves invariants without rebuilding a single arrangement.
//
// Invariants are immutable after construction, so a cached invariant may be
// shared by any number of concurrent queries; each query gets its own
// core.Database (whose lazy evaluator state is not concurrency-safe), seeded
// with the shared invariant via core.OpenWith so that cache hits do no
// arrangement work.
//
// Every figure the engine counts lives in one obs registry per engine
// (Metrics); Stats reads it back together with the cache sizes.
package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"log/slog"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/lru"
	"repro/internal/obs"
	"repro/internal/pointfo"
	"repro/internal/queryl"
	"repro/internal/simindex"
	"repro/internal/spatial"
	"repro/internal/store"
)

// DefaultCacheCapacity bounds the invariant cache when no option is given.
const DefaultCacheCapacity = 128

// Option configures an Engine.
type Option func(*Engine)

// WithCacheCapacity bounds the number of cached invariants.  Capacities up
// to 16 are enforced exactly (the cache uses one shard per entry);
// larger capacities are enforced per shard — ⌈capacity/16⌉ entries each —
// so the effective bound rounds up to the next multiple of 16 (e.g. 17 →
// 32; Stats reports the effective figure).  Values < 1 are treated as 1.
func WithCacheCapacity(n int) Option {
	return func(e *Engine) { e.capacity = n }
}

// WithWorkers sets the worker-pool size used by Batch.  Values < 1 are
// treated as 1.  The default is runtime.GOMAXPROCS(0).
func WithWorkers(n int) Option {
	return func(e *Engine) {
		if n < 1 {
			n = 1
		}
		e.workers = n
	}
}

// WithStore layers the engine over a disk-backed invariant store in dir
// (created if needed).  Cache misses fall through to disk before recomputing
// and computed invariants are persisted.  If the directory cannot be opened,
// the error is reported by StoreErr and by every invariant computation.
func WithStore(dir string) Option {
	return func(e *Engine) { e.storeDir = dir }
}

// WithAnswerCapacity bounds the number of cached query answers.  Like
// WithCacheCapacity, capacities up to 16 are exact and larger ones round up
// to a multiple of 16 (Stats reports the effective figure).  Values < 1 are
// treated as 1.
func WithAnswerCapacity(n int) Option {
	return func(e *Engine) { e.answerCapacity = n }
}

// Engine is a concurrent topological query engine.  All methods are safe for
// concurrent use.
type Engine struct {
	// Requested cache capacities; New sizes the caches from them.
	capacity, evalCapacity, answerCapacity int
	workers                                int
	storeDir                               string

	m *metrics

	invariants *lru.Sharded[*invariant.Invariant]
	// evaluators caches compiled evaluators per instance content address —
	// see evalcache.go.
	evaluators *lru.Sharded[*pointfo.CompiledEvaluator]
	// answers caches Boolean query results keyed by (instance content
	// address, canonical query text, resolved strategy) — see answerKey.
	// It sits in front of invariant computation: a repeated ask is served
	// without touching the invariant cache, the disk store or the evaluator.
	// Content addresses are immutable, so entries never go stale; the LRU
	// bound only caps memory.
	answers *lru.Sharded[bool]

	store    *store.Store
	storeErr error

	// sim is the two-tier similarity index over every invariant this engine
	// has computed or loaded; persisted beside the store as SIMINDEX.bin
	// (see simindex.go in this package).
	sim *simindex.Index

	// keyMemo memoizes content addresses per instance pointer, so repeated
	// queries against the same *spatial.Instance do not re-serialize the
	// geometry on every cache lookup.  Instances handed to the engine must
	// not be mutated afterwards (the engine's whole premise — content
	// addressing — assumes immutable content).  The memo is reset when it
	// reaches four times the invariant cache's enforced capacity, so it
	// cannot pin arbitrarily many instances.
	keyMu   sync.Mutex
	keyMemo map[*spatial.Instance]string
}

// New creates an engine.
func New(opts ...Option) *Engine {
	e := &Engine{
		capacity:       DefaultCacheCapacity,
		evalCapacity:   DefaultEvaluatorCapacity,
		answerCapacity: DefaultAnswerCapacity,
		workers:        runtime.GOMAXPROCS(0),
		keyMemo:        make(map[*spatial.Instance]string),
		m:              newMetrics(),
	}
	for _, o := range opts {
		o(e)
	}
	e.invariants = lru.New[*invariant.Invariant](e.capacity, e.m.inv)
	e.evaluators = lru.New[*pointfo.CompiledEvaluator](e.evalCapacity, e.m.eval)
	e.answers = lru.New[bool](e.answerCapacity, lru.Counters{})
	if e.storeDir != "" {
		e.store, e.storeErr = store.Open(e.storeDir)
	}
	e.simInit()
	return e
}

// Metrics returns the engine's own registry: every topoinv_engine_* family,
// counted for this engine alone.
func (e *Engine) Metrics() *obs.Registry { return e.m.reg }

// StoreErr reports whether WithStore failed to open its directory.  Engines
// without a store always return nil.
func (e *Engine) StoreErr() error { return e.storeErr }

// Store returns the engine's disk store, or nil when none is configured.
func (e *Engine) Store() *store.Store { return e.store }

// Close persists the similarity index beside the store, then flushes and
// closes the disk store, if any.
func (e *Engine) Close() error {
	if e.store == nil {
		return nil
	}
	e.simSave()
	return e.store.Close()
}

// InstanceKey returns the content address of an instance: the hex SHA-256 of
// its deterministic binary encoding.
func InstanceKey(inst *spatial.Instance) (string, error) {
	data, err := codec.EncodeInstance(inst)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// Invariant returns top(inst), computing it at most once per instance content
// and serving repeats from the memory cache or the disk store.
func (e *Engine) Invariant(inst *spatial.Instance) (*invariant.Invariant, error) {
	inv, _, err := e.invariant(inst)
	return inv, err
}

// Key returns the instance's content address (InstanceKey), memoized per
// instance pointer: it is computed on first use and served from the memo
// afterwards.
func (e *Engine) Key(inst *spatial.Instance) (string, error) {
	e.keyMu.Lock()
	k, ok := e.keyMemo[inst]
	e.keyMu.Unlock()
	if ok {
		return k, nil
	}
	k, err := InstanceKey(inst)
	if err != nil {
		return "", err
	}
	e.keyMu.Lock()
	if len(e.keyMemo) >= 4*e.invariants.Capacity() {
		e.keyMemo = make(map[*spatial.Instance]string)
	}
	e.keyMemo[inst] = k
	e.keyMu.Unlock()
	return k, nil
}

// CachedInvariant returns the cached invariant for the instance without
// computing anything; ok is false on a memory-cache miss (the disk store is
// not consulted).
func (e *Engine) CachedInvariant(inst *spatial.Instance) (*invariant.Invariant, bool) {
	key, err := e.Key(inst)
	if err != nil {
		return nil, false
	}
	return e.invariants.Get(key)
}

// invariant reports whether the invariant came from the memory cache (hit);
// waiting on another goroutine's in-flight compute, a disk-store hit and a
// fresh computation all count as misses.
func (e *Engine) invariant(inst *spatial.Instance) (*invariant.Invariant, bool, error) {
	key, err := e.Key(inst)
	if err != nil {
		return nil, false, fmt.Errorf("engine: %w", err)
	}
	return e.invariants.GetOrBuild(key, func() (*invariant.Invariant, error) { return e.load(key, inst) })
}

// load resolves a memory miss: disk store first (when configured), then a
// fresh computation whose result is persisted back to the store.
func (e *Engine) load(key string, inst *spatial.Instance) (*invariant.Invariant, error) {
	if e.storeErr != nil {
		return nil, fmt.Errorf("engine: invariant store: %w", e.storeErr)
	}
	// overwrite is set when the store holds an undecodable blob under this
	// key: the recomputed invariant must supersede it (a plain Put is a
	// no-op for present keys, which would leave the corruption in place).
	overwrite := false
	if e.store != nil {
		if data, ok, err := e.store.Get(key); err != nil {
			e.m.storeErrs.Inc()
			// The key may be present but unreadable; a plain Put would
			// no-op and leave the bad record in place.
			overwrite = true
		} else if ok {
			inv, derr := codec.DecodeInvariant(data)
			if derr == nil {
				e.m.storeHits.Inc()
				e.simAdd(key, inv)
				return inv, nil
			}
			e.m.storeErrs.Inc()
			overwrite = true
		}
	}
	inv, err := e.compute(inst)
	if err != nil {
		return nil, err
	}
	if e.store != nil {
		put := e.store.Put
		if overwrite {
			put = e.store.Replace
		}
		if data, eerr := codec.EncodeInvariant(inv); eerr != nil {
			e.m.storeErrs.Inc()
		} else if perr := put(key, data); perr != nil {
			e.m.storeErrs.Inc()
		} else {
			e.m.storePuts.Inc()
		}
	}
	e.simAdd(key, inv)
	return inv, nil
}

// compute runs invariant.Compute under the build histogram.  The deferred
// observation also times failed and panicking runs: the histogram's count is
// Stats.Computes.
func (e *Engine) compute(inst *spatial.Instance) (*invariant.Invariant, error) {
	start := time.Now()
	defer func() { e.m.invariantBuild.ObserveDuration(time.Since(start)) }()
	return invariant.Compute(inst)
}

// Request is one query against one instance.
type Request struct {
	Instance *spatial.Instance
	Query    pointfo.PointFormula
	// Strategy, together with StrategySet, overrides the batch-level default
	// strategy for this request.  The zero value (StrategySet == false)
	// inherits the default passed to Batch/BatchStream.
	Strategy core.Strategy
	// StrategySet marks Strategy as an explicit per-request override (the
	// zero Strategy is core.Direct, so presence needs its own flag).
	StrategySet bool
	// Ctx optionally carries request-scoped observability state (the
	// request id set by the HTTP front-end) into engine log lines.  It does
	// not cancel evaluation; nil is fine.
	Ctx context.Context
	// Span optionally records per-stage timings (answer cache, invariant,
	// open, eval) under the given parent.  A nil span is a no-op recorder:
	// the disabled path costs one pointer test per stage.
	Span *obs.Span
}

// effective resolves the request's strategy against the batch default.
func (r Request) effective(def core.Strategy) core.Strategy {
	if r.StrategySet {
		return r.Strategy
	}
	return def
}

// Result is the outcome of one Request.
type Result struct {
	// Index is the position of the request in the Batch input.
	Index int
	// Answer is the Boolean query result (meaningless when Err != nil).
	Answer bool
	// Err is the evaluation error, if any.
	Err error
	// CacheHit reports whether the invariant came from the memory cache.
	// Always false for a Direct request (it never touches the invariant),
	// but an Auto request that fell back to Direct still consulted the
	// cache to inspect the invariant, so Strategy == Direct with
	// CacheHit == true is possible there.  An AnswerHit skips the invariant
	// entirely for the concrete strategies, leaving CacheHit false.
	CacheHit bool
	// AnswerHit reports that the Boolean answer was served from the answer
	// cache — no invariant fetch (for concrete strategies) and no evaluator
	// run happened.
	AnswerHit bool
	// Canonical is the canonical concrete-syntax text of the query (package
	// queryl), the identity the answer cache keys on.
	Canonical string
	// Strategy is the strategy that actually evaluated the query: the
	// requested one, or — for core.Auto — the concrete strategy it resolved
	// to (ViaInvariantFixpoint when the instance's invariant is invertible,
	// Direct otherwise).
	Strategy core.Strategy
	// Latency is the wall-clock evaluation time of this request.
	Latency time.Duration
}

// Ask evaluates one query with the given strategy, using the invariant cache
// for the invariant-based strategies.
func (e *Engine) Ask(inst *spatial.Instance, q pointfo.PointFormula, s core.Strategy) (bool, error) {
	res := e.AskResult(inst, q, s)
	return res.Answer, res.Err
}

// AskResult is Ask returning the full Result (cache hit, latency).
func (e *Engine) AskResult(inst *spatial.Instance, q pointfo.PointFormula, s core.Strategy) Result {
	return e.run(Request{Instance: inst, Query: q}, 0, s)
}

// Do evaluates one fully specified Request (including its optional Ctx and
// Span observability fields), using the request's strategy when set and def
// otherwise.  It is AskResult for callers that need stage tracing or
// request-id propagation.
func (e *Engine) Do(req Request, def core.Strategy) Result {
	return e.run(req, 0, req.effective(def))
}

// Batch evaluates many requests concurrently on the engine's worker pool and
// returns one Result per request, in input order.  s is the default strategy;
// requests with StrategySet override it individually.
func (e *Engine) Batch(reqs []Request, s core.Strategy) []Result {
	results := make([]Result, len(reqs))
	for res := range e.BatchStream(reqs, s) {
		results[res.Index] = res
	}
	return results
}

// BatchStream evaluates requests like Batch but delivers each Result on the
// returned channel as soon as its worker finishes, in completion order
// (Result.Index identifies the request).  The channel is closed after the
// last result; an abandoned receiver leaks the workers, so callers must
// drain it.
func (e *Engine) BatchStream(reqs []Request, s core.Strategy) <-chan Result {
	out := make(chan Result)
	if len(reqs) == 0 {
		close(out)
		return out
	}
	workers := e.workers
	if workers > len(reqs) {
		workers = len(reqs)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out <- e.run(reqs[i], i, reqs[i].effective(s))
			}
		}()
	}
	go func() {
		for i := range reqs {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
		close(out)
	}()
	return out
}

// run evaluates one request and records per-strategy metrics.  Evaluation
// panics (the query language panics on e.g. unknown region names) are
// converted to errors: a bad request must not kill the Batch worker pool —
// or, in the serve front-end, the whole process.
//
// core.Auto resolves here, against the engine's invariant cache: the
// invariant is fetched (cache → store → compute) once and core.ResolveAuto
// picks the strategy, ViaInvariantFixpoint when the invariant is invertible
// and Direct otherwise — recorded under the resolved strategy, with the
// fallback counted in Stats.AutoFallbacks.  An invariant computation
// failure also falls back to Direct rather than erroring: direct evaluation
// never needs the invariant.
//
// The answer cache sits between resolution and evaluation: once the
// strategy is concrete, the (instance, canonical query, strategy) triple
// addresses a previously computed Boolean and a hit returns without opening
// a database — for the non-Auto strategies this means without touching the
// invariant cache or disk store at all.  Errors are never cached.
func (e *Engine) run(req Request, index int, s core.Strategy) (res Result) {
	start := time.Now()
	res = Result{Index: index, Strategy: s}
	e.m.inflight.Add(1)
	defer e.m.inflight.Add(-1)
	defer func() {
		if r := recover(); r != nil {
			res.Err = fmt.Errorf("engine: query evaluation panicked: %v", r)
			res.Latency = time.Since(start)
			e.record(res.Strategy, res)
			slog.Error("engine: query evaluation panicked",
				"req_id", obs.RequestID(req.Ctx),
				"strategy", res.Strategy.String(),
				"panic", fmt.Sprint(r))
		}
	}()

	instKey, keyErr := e.Key(req.Instance)
	if req.Query != nil {
		res.Canonical = queryl.Format(req.Query)
	}

	// Resolve Auto first: the resolved strategy is part of the answer key.
	// Resolution inspects the invariant through the regular cache path, so
	// a repeat resolution is a cheap memory-cache hit.
	var inv *invariant.Invariant
	var err error
	if s == core.Auto {
		e.m.autoQueries.Inc()
		sp := req.Span.Child("resolve")
		inv, res.CacheHit, err = e.invariant(req.Instance)
		sp.End()
		if res.Strategy = core.ResolveAuto(inv, err); res.Strategy == core.Direct {
			// Direct evaluation needs no invariant, so a computation failure
			// falls back rather than erroring.
			e.m.autoFallbacks.Inc()
			inv, err = nil, nil
		}
	}

	akey := ""
	if res.Canonical != "" && keyErr == nil {
		sp := req.Span.Child("answer_cache")
		akey = answerKey(instKey, res.Canonical, res.Strategy)
		ans, ok := e.answers.Get(akey)
		sp.End()
		if ok {
			e.m.answerHits.Inc()
			res.Answer, res.AnswerHit = ans, true
			res.Latency = time.Since(start)
			e.record(res.Strategy, res)
			return res
		}
		e.m.answerMisses.Inc()
	}

	var db *core.Database
	if err == nil {
		if res.Strategy == core.Direct {
			sp := req.Span.Child("open")
			db, err = core.Open(req.Instance)
			sp.End()
		} else {
			if inv == nil {
				sp := req.Span.Child("invariant")
				inv, res.CacheHit, err = e.invariant(req.Instance)
				sp.End()
			}
			if err == nil {
				sp := req.Span.Child("open")
				db, err = core.OpenWith(req.Instance, inv)
				sp.End()
			}
		}
	}
	if err == nil {
		// Every database evaluates through the engine's compiled-evaluator
		// cache, so repeated asks against the same instance content reuse
		// the sample and membership matrix.
		db.SetEvalSource(e)
		sp := req.Span.Child("eval")
		res.Answer, err = db.Ask(req.Query, res.Strategy)
		sp.End()
		if err == nil && akey != "" {
			e.answers.Put(akey, res.Answer)
		}
	}
	res.Err = err
	res.Latency = time.Since(start)
	e.record(res.Strategy, res)
	if err != nil {
		// Debug, not Warn: bad queries are a client matter, and under load a
		// hostile batch would otherwise write one line per item.
		slog.Debug("engine: query evaluation failed",
			"req_id", obs.RequestID(req.Ctx),
			"strategy", res.Strategy.String(),
			"err", err)
	}
	return res
}

func (e *Engine) record(s core.Strategy, res Result) {
	if s < core.Direct || s > core.ViaLinearized {
		return // Auto left unresolved by a panic: no strategy ran
	}
	name := s.String()
	e.m.queries.With(name, statusOutcome(res.Err)).Inc()
	e.m.queryLatency.With(name).ObserveDuration(res.Latency)
}

// StrategyStats is the per-strategy counter snapshot.
type StrategyStats struct {
	Strategy     string        `json:"strategy"`
	Queries      uint64        `json:"queries"`
	Errors       uint64        `json:"errors"`
	TotalLatency time.Duration `json:"total_latency_ns"`
	AvgLatency   time.Duration `json:"avg_latency_ns"`
}

// Stats is a point-in-time snapshot of the engine's counters.
type Stats struct {
	CacheHits      uint64 `json:"cache_hits"`
	CacheMisses    uint64 `json:"cache_misses"`
	CacheDedups    uint64 `json:"cache_dedups"`
	CacheEvictions uint64 `json:"cache_evictions"`
	CacheSize      int    `json:"cache_size"`
	CacheCapacity  int    `json:"cache_capacity"`
	CacheShards    int    `json:"cache_shards"`
	// AnswerHits / AnswerMisses count lookups in the answer cache — the
	// Boolean-result cache keyed by (instance, canonical query, resolved
	// strategy) that sits in front of invariant computation.
	AnswerHits     uint64 `json:"answer_hits"`
	AnswerMisses   uint64 `json:"answer_misses"`
	AnswerSize     int    `json:"answer_size"`
	AnswerCapacity int    `json:"answer_capacity"`
	// EvalHits / EvalMisses / EvalDedups / EvalEvictions cover the
	// compiled-evaluator cache: {sample, membership matrix, ranks} memoized
	// per instance content address (evalcache.go).
	EvalHits      uint64 `json:"eval_hits"`
	EvalMisses    uint64 `json:"eval_misses"`
	EvalDedups    uint64 `json:"eval_dedups"`
	EvalEvictions uint64 `json:"eval_evictions"`
	EvalSize      int    `json:"eval_size"`
	EvalCapacity  int    `json:"eval_capacity"`
	// Computes counts actual invariant.Compute runs: misses that neither
	// the memory cache, the in-flight table nor the disk store absorbed.
	Computes uint64 `json:"computes"`
	// StoreHits / StorePuts / StoreErrors cover the disk store (all zero
	// when no store is configured).
	StoreHits   uint64       `json:"store_hits"`
	StorePuts   uint64       `json:"store_puts"`
	StoreErrors uint64       `json:"store_errors"`
	Store       *store.Stats `json:"store,omitempty"`
	// Sim covers the similarity index: live size plus how the corpus was
	// recovered at startup (entries read from SIMINDEX.bin vs store blobs
	// reindexed because the file missed them).
	Sim          simindex.Stats `json:"sim"`
	SimLoaded    uint64         `json:"sim_loaded"`
	SimReindexed uint64         `json:"sim_reindexed"`
	SimErrors    uint64         `json:"sim_errors"`
	// AutoQueries counts queries submitted with core.Auto; AutoFallbacks
	// counts those that fell back to Direct (invariant outside the
	// invertible class).  Auto evaluations are otherwise recorded under the
	// concrete strategy they resolved to.
	AutoQueries   uint64          `json:"auto_queries"`
	AutoFallbacks uint64          `json:"auto_fallbacks"`
	Strategies    []StrategyStats `json:"strategies"`
}

// Stats returns a snapshot of the engine's cache, store and per-strategy
// counters, read from its metrics registry.  Strategies that served no
// queries are omitted.
func (e *Engine) Stats() Stats {
	m := e.m
	st := Stats{
		CacheHits:      m.inv.Hits.Value(),
		CacheMisses:    m.inv.Misses.Value(),
		CacheDedups:    m.inv.Dedups.Value(),
		CacheEvictions: m.inv.Evictions.Value(),
		CacheSize:      e.invariants.Len(),
		CacheCapacity:  e.invariants.Capacity(),
		CacheShards:    e.invariants.Shards(),
		AnswerHits:     m.answerHits.Value(),
		AnswerMisses:   m.answerMisses.Value(),
		AnswerSize:     e.answers.Len(),
		AnswerCapacity: e.answers.Capacity(),
		EvalHits:       m.eval.Hits.Value(),
		EvalMisses:     m.eval.Misses.Value(),
		EvalDedups:     m.eval.Dedups.Value(),
		EvalEvictions:  m.eval.Evictions.Value(),
		EvalSize:       e.evaluators.Len(),
		EvalCapacity:   e.evaluators.Capacity(),
		Computes:       m.invariantBuild.Count(),
		StoreHits:      m.storeHits.Value(),
		StorePuts:      m.storePuts.Value(),
		StoreErrors:    m.storeErrs.Value(),
		SimLoaded:      m.simLoaded.Value(),
		SimReindexed:   m.simReindexed.Value(),
		SimErrors:      m.simErrors.Value(),
		AutoQueries:    m.autoQueries.Value(),
		AutoFallbacks:  m.autoFallbacks.Value(),
		Sim:            e.sim.Stats(),
	}
	if e.store != nil {
		ss := e.store.Stats()
		st.Store = &ss
	}
	// Lookup, not With: reading must not create zero-valued children in the
	// exposition.
	for s := core.Direct; s <= core.ViaLinearized; s++ {
		name := s.String()
		h := m.queryLatency.Lookup(name)
		if h == nil {
			continue
		}
		q, total := h.Count(), time.Duration(math.Round(h.Sum()*float64(time.Second)))
		if q == 0 {
			continue
		}
		var errs uint64
		if c := m.queries.Lookup(name, "error"); c != nil {
			errs = c.Value()
		}
		st.Strategies = append(st.Strategies, StrategyStats{
			Strategy:     name,
			Queries:      q,
			Errors:       errs,
			TotalLatency: total,
			AvgLatency:   total / time.Duration(q),
		})
	}
	return st
}
