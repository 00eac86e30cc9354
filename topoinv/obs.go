package topoinv

import (
	"context"

	"repro/internal/obs"
)

// Observability surface: the dependency-free metrics/tracing/logging toolkit
// every layer of the library reports into (package obs).  The store, sweep,
// arrangement, pointfo and simindex packages register their instruments on
// the shared default registry at init; Metrics exposes that registry so a
// front end (the HTTP server) can add its own instruments.  Each Engine keeps
// its instruments in a registry of its own (Engine.Metrics), which the
// server renders after Metrics.
type (
	// Span is a process-local stage recorder with nested children.  The nil
	// *Span is a fully functional no-op: instrumented paths pay one pointer
	// test when tracing is off.
	Span = obs.Span
	// StageTiming is the JSON rendering of a span tree (the "timings" field
	// of ask/batch responses behind ?debug=timings).
	StageTiming = obs.StageTiming
	// MetricsRegistry is a set of named instruments renderable as Prometheus
	// text or a JSON snapshot.
	MetricsRegistry = obs.Registry
)

// Metrics is the process-wide default registry, rendered at GET /metrics and
// embedded in /v1/stats ahead of the engine's own registry.
var Metrics = obs.Default

var (
	// StartSpan starts a root timing span.
	StartSpan = obs.StartSpan
	// NewLogger builds a text or JSON slog.Logger at a minimum level.
	NewLogger = obs.NewLogger
	// ParseLogLevel maps debug | info | warn | error to a slog.Level.
	ParseLogLevel = obs.ParseLevel
	// NewRequestID returns a fresh random request id.
	NewRequestID = obs.NewRequestID
	// WithRequestID attaches a request id to a context; the engine's log
	// lines carry it as req_id.
	WithRequestID = obs.WithRequestID
	// RequestIDFrom extracts the request id from a context ("" if absent).
	RequestIDFrom = obs.RequestID
)

// Default histogram bucket layouts.
var (
	// LatencyBuckets spans 1µs–10s, the default for duration histograms.
	LatencyBuckets = obs.DefLatencyBuckets
	// SizeBuckets spans 64B–64MB, the default for payload-size histograms.
	SizeBuckets = obs.DefSizeBuckets
)

// SpanFromContext returns the span attached to a context, or nil.
func SpanFromContext(ctx context.Context) *Span { return obs.SpanFrom(ctx) }

// ContextWithSpan attaches a span to a context.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return obs.WithSpan(ctx, s)
}
