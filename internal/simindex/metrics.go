package simindex

import (
	"time"

	"repro/internal/obs"
)

// Process-wide similarity-index metrics, registered against the obs default
// registry and served at GET /metrics (same posture as internal/engine:
// one process, one exposition; per-index figures stay in Stats). Size
// gauges are set at every mutation, so with one server engine per process
// they track the live index.
var (
	mEntries = obs.Default.Gauge(
		"topoinv_simindex_entries",
		"Instances currently in the similarity index.")
	mClasses = obs.Default.Gauge(
		"topoinv_simindex_classes",
		"Distinct exact-tier equivalence classes in the similarity index.")
	mQueryLatency = obs.Default.Histogram(
		"topoinv_simindex_query_seconds",
		"Top-k similarity query latency (both tiers).",
		obs.DefLatencyBuckets)
	mUpdateLatency = obs.Default.Histogram(
		"topoinv_simindex_update_seconds",
		"Index update latency (entry insertion).",
		obs.DefLatencyBuckets)
	mExactHits = obs.Default.Counter(
		"topoinv_simindex_exact_matches_total",
		"Matches served by the exact tier (O(1) equivalence-class lookup).")
)

// startTimer returns a stop function observing the elapsed wall time into
// h. The wall clock feeds only the latency histogram, never an index
// answer, so the determinism guarantee of this package is untouched.
func startTimer(h *obs.Histogram) func() {
	//lint:allow determinism(wall clock feeds a latency histogram only, never query results)
	start := time.Now()
	return func() { h.ObserveDuration(time.Since(start)) }
}
