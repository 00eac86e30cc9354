package arrangement

import (
	"repro/internal/obs"
)

// Process-wide arrangement metrics (obs default registry, served at
// GET /metrics).  Build now runs on the exact sweep end to end; these
// counters track its cost alongside the sweep package's own metrics.
var (
	mBuildLatency = obs.Default.Histogram(
		"topoinv_arrangement_build_seconds",
		"Wall-clock latency of one maximum-cell-decomposition build.",
		obs.DefLatencyBuckets)
	mBuilds = obs.Default.CounterVec(
		"topoinv_arrangement_builds_total",
		"Decomposition builds by outcome (ok | error).",
		"outcome")
	mSubSegments = obs.Default.Counter(
		"topoinv_arrangement_subsegments_total",
		"Elementary sub-segments produced by subdivision.")
	mIntersectionOps = obs.Default.Counter(
		"topoinv_arrangement_intersection_ops_total",
		"Intersecting segment pairs found by the subdivision sweep.")
	mFacesClassified = obs.Default.Counter(
		"topoinv_arrangement_faces_classified_total",
		"Faces traced and sign-classified across all builds.")
)
