package engine

import (
	"repro/internal/lru"
	"repro/internal/obs"
)

// metrics are the engine's counters, the only ones it keeps.  Each engine
// registers them on a registry of its own (Engine.Metrics), so two engines
// in one process never mix their counts; Stats is a view over them and the
// serve front-end renders the registry after obs.Default at GET /metrics.
type metrics struct {
	reg *obs.Registry

	queryLatency *obs.HistogramVec
	queries      *obs.CounterVec
	inflight     *obs.Gauge

	answerHits, answerMisses *obs.Counter

	inv            lru.Counters
	invariantBuild *obs.Histogram
	eval           lru.Counters
	evalBuild      *obs.Histogram

	storeHits, storePuts, storeErrs *obs.Counter

	autoQueries, autoFallbacks         *obs.Counter
	simLoaded, simReindexed, simErrors *obs.Counter
}

func newMetrics() *metrics {
	r := obs.NewRegistry()
	m := &metrics{
		reg: r,
		queryLatency: r.HistogramVec(
			"topoinv_engine_query_duration_seconds",
			"Query evaluation latency by resolved strategy.",
			obs.DefLatencyBuckets, "strategy"),
		queries: r.CounterVec(
			"topoinv_engine_queries_total",
			"Queries evaluated, by resolved strategy and outcome (ok | error).",
			"strategy", "outcome"),
		inflight: r.Gauge(
			"topoinv_engine_inflight_queries",
			"Queries currently being evaluated."),

		answerHits: r.Counter(
			"topoinv_engine_answer_cache_hits_total",
			"Answer-cache lookups served without evaluation."),
		answerMisses: r.Counter(
			"topoinv_engine_answer_cache_misses_total",
			"Answer-cache lookups that fell through to evaluation."),

		inv: lru.Counters{
			Hits: r.Counter(
				"topoinv_engine_invariant_cache_hits_total",
				"Invariant memory-cache hits."),
			Misses: r.Counter(
				"topoinv_engine_invariant_cache_misses_total",
				"Invariant memory-cache misses (dedups, store hits and computes)."),
			Dedups: r.Counter(
				"topoinv_engine_singleflight_dedups_total",
				"Invariant computations deduplicated onto another goroutine's in-flight build."),
			Evictions: r.Counter(
				"topoinv_engine_invariant_cache_evictions_total",
				"Invariants evicted from the LRU memory cache."),
		},
		invariantBuild: r.Histogram(
			"topoinv_engine_invariant_build_seconds",
			"Wall-clock latency of invariant.Compute runs (cold path).",
			obs.DefLatencyBuckets),

		eval: lru.Counters{
			Hits: r.Counter(
				"topoinv_engine_evaluator_cache_hits_total",
				"Compiled-evaluator cache hits."),
			Misses: r.Counter(
				"topoinv_engine_evaluator_cache_misses_total",
				"Compiled-evaluator cache misses (dedups and fresh builds)."),
			Dedups: r.Counter(
				"topoinv_engine_evaluator_singleflight_dedups_total",
				"Evaluator builds deduplicated onto another goroutine's in-flight build."),
			Evictions: r.Counter(
				"topoinv_engine_evaluator_cache_evictions_total",
				"Compiled evaluators evicted from the LRU memory cache."),
		},
		evalBuild: r.Histogram(
			"topoinv_engine_evaluator_build_seconds",
			"Wall-clock latency of compiled-evaluator builds (sample + membership matrix).",
			obs.DefLatencyBuckets),

		storeHits: r.Counter(
			"topoinv_engine_store_hits_total",
			"Invariant fetches served from the disk store."),
		storePuts: r.Counter(
			"topoinv_engine_store_puts_total",
			"Freshly computed invariants persisted to the disk store."),
		storeErrs: r.Counter(
			"topoinv_engine_store_errors_total",
			"Disk-store read/decode/write failures absorbed by recomputation."),

		autoQueries: r.Counter(
			"topoinv_engine_auto_queries_total",
			"Queries submitted with the auto strategy."),
		autoFallbacks: r.Counter(
			"topoinv_engine_auto_fallbacks_total",
			"Auto queries that fell back to direct evaluation (invariant not invertible or not computable)."),
		simLoaded: r.Counter(
			"topoinv_engine_simindex_loaded_total",
			"Similarity-index entries read from SIMINDEX.bin at startup."),
		simReindexed: r.Counter(
			"topoinv_engine_simindex_reindexed_total",
			"Store blobs indexed at startup because SIMINDEX.bin missed them."),
		simErrors: r.Counter(
			"topoinv_engine_simindex_errors_total",
			"Similarity-index file and store-blob failures met while loading or saving the index."),
	}
	// Cache effectiveness as ready-made ratios, so a dashboard needs no
	// rate() arithmetic to spot a cache that stopped earning its keep.
	r.GaugeFunc(
		"topoinv_engine_answer_cache_hit_ratio",
		"Lifetime answer-cache hit ratio (hits / lookups).",
		func() float64 { return ratio(m.answerHits, m.answerMisses) })
	r.GaugeFunc(
		"topoinv_engine_invariant_cache_hit_ratio",
		"Lifetime invariant memory-cache hit ratio (hits / lookups).",
		func() float64 { return ratio(m.inv.Hits, m.inv.Misses) })
	r.GaugeFunc(
		"topoinv_engine_evaluator_cache_hit_ratio",
		"Lifetime compiled-evaluator cache hit ratio (hits / lookups).",
		func() float64 { return ratio(m.eval.Hits, m.eval.Misses) })
	return m
}

func ratio(hits, misses *obs.Counter) float64 {
	h, n := hits.Value(), misses.Value()
	if h+n == 0 {
		return 0
	}
	return float64(h) / float64(h+n)
}

func statusOutcome(err error) string {
	if err != nil {
		return "error"
	}
	return "ok"
}
