// Package obs is the dependency-free observability core: a metrics registry
// (counters, gauges, fixed-bucket histograms, with and without labels)
// rendered in the Prometheus text exposition format and as JSON, a
// lightweight span recorder for per-request stage timings, and slog +
// request-id helpers.
//
// The design trades generality for cheapness on the hot path: every
// instrument is a handful of atomics (a histogram observation is two atomic
// adds and one atomic CAS loop for the sum), labeled instruments resolve
// their child through a sync.Map, and a nil *Span is a no-op recorder so
// disabled tracing costs a pointer test.  Rendering walks a snapshot under a
// read lock; it never blocks writers.
//
// Layers register process-wide instruments against the Default registry at
// package init (metric names are globally unique); the engine keeps its own
// registry per Engine so two engines in one process never mix their counts.
// The serve front-end renders Default and then its engine's registry at
// GET /metrics.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefLatencyBuckets are the default histogram bounds for latencies in
// seconds: roughly logarithmic from 1µs (a cached answer) to 10s (a cold
// 100k-vertex arrangement), so both ends of the engine's ~500x cold-vs-cached
// spread land in interior buckets.
var DefLatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// DefSizeBuckets are the default histogram bounds for byte sizes: powers of
// four from 64B to 64MB.
var DefSizeBuckets = []float64{
	64, 256, 1024, 4096, 16384, 65536, 262144, 1 << 20, 4 << 20, 16 << 20, 64 << 20,
}

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable int64.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram.  Observations are float64 (by
// convention seconds for latencies, bytes for sizes); bounds are inclusive
// upper bounds with an implicit +Inf bucket at the end.  All methods are safe
// for concurrent use.
type Histogram struct {
	bounds  []float64 // strictly increasing upper bounds
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

// NewHistogram creates a standalone histogram (not attached to a registry)
// with the given upper bounds; nil bounds default to DefLatencyBuckets.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefLatencyBuckets
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v (inclusive upper bounds)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1) by linear interpolation
// inside the bucket containing the target rank, the same estimate Prometheus'
// histogram_quantile applies server-side.  An empty histogram reports 0.
// Values in the +Inf bucket are clamped to the largest finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := 0.0
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			if i >= len(h.bounds) {
				// +Inf bucket: no finite upper bound to interpolate toward.
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - cum) / n
			if frac < 0 {
				frac = 0
			}
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// Snapshot returns the cumulative bucket counts (one per bound, plus +Inf).
func (h *Histogram) snapshot() (cum []uint64, count uint64, sum float64) {
	cum = make([]uint64, len(h.counts))
	running := uint64(0)
	for i := range h.counts {
		running += h.counts[i].Load()
		cum[i] = running
	}
	return cum, h.count.Load(), h.Sum()
}

// --- labeled families ---

const labelSep = "\x1f"

// CounterVec is a family of counters split by label values.
type CounterVec struct {
	labels   []string
	children sync.Map // joined values -> *Counter
}

// With returns the child counter for the given label values (created on
// first use).  The number of values must match the label names.
func (v *CounterVec) With(values ...string) *Counter {
	return vecChild(&v.children, v.labels, values, func() *Counter { return &Counter{} })
}

// GaugeVec is a family of gauges split by label values.
type GaugeVec struct {
	labels   []string
	children sync.Map
}

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return vecChild(&v.children, v.labels, values, func() *Gauge { return &Gauge{} })
}

// HistogramVec is a family of histograms split by label values.
type HistogramVec struct {
	labels   []string
	bounds   []float64
	children sync.Map
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return vecChild(&v.children, v.labels, values, func() *Histogram { return NewHistogram(v.bounds) })
}

// Lookup returns the child counter for the given label values, or nil when
// none was created.  Unlike With it never creates one, so reading a family
// leaves its exposition unchanged.
func (v *CounterVec) Lookup(values ...string) *Counter {
	return vecLookup[*Counter](&v.children, values)
}

// Lookup returns the child histogram for the given label values, or nil
// when none was created; see CounterVec.Lookup.
func (v *HistogramVec) Lookup(values ...string) *Histogram {
	return vecLookup[*Histogram](&v.children, values)
}

func vecLookup[T any](m *sync.Map, values []string) (child T) {
	if c, ok := m.Load(strings.Join(values, labelSep)); ok {
		child = c.(T)
	}
	return child
}

func vecChild[T any](m *sync.Map, labels, values []string, mk func() T) T {
	if len(values) != len(labels) {
		panic(fmt.Sprintf("obs: %d label values for %d labels %v", len(values), len(labels), labels))
	}
	key := strings.Join(values, labelSep)
	if c, ok := m.Load(key); ok {
		return c.(T)
	}
	c, _ := m.LoadOrStore(key, mk())
	return c.(T)
}

// --- registry ---

type familyKind int

const (
	kindCounter familyKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

type family struct {
	name, help string
	kind       familyKind
	labels     []string // nil for scalar instruments

	counter   *Counter
	gauge     *Gauge
	gaugeFn   func() float64
	histogram *Histogram

	counterVec   *CounterVec
	gaugeVec     *GaugeVec
	histogramVec *HistogramVec
}

// Registry is a set of named instruments.  Registration is idempotent:
// re-registering a name with the same kind returns the existing instrument,
// so package-level instruments can be declared wherever they are used.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Default is the process-wide registry: the store, sweep, arrangement,
// pointfo, simindex and HTTP layers register into it and GET /metrics
// renders it.
var Default = NewRegistry()

func (r *Registry) register(name, help string, kind familyKind, labels []string, mk func() *family) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different kind or labels", name))
		}
		return f
	}
	f := mk()
	f.name, f.help, f.kind, f.labels = name, help, kind, labels
	r.families[name] = f
	return f
}

// Counter registers (or returns) a scalar counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, kindCounter, nil, func() *family { return &family{counter: &Counter{}} })
	return f.counter
}

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	f := r.register(name, help, kindCounter, labels, func() *family {
		return &family{counterVec: &CounterVec{labels: labels}}
	})
	return f.counterVec
}

// Gauge registers (or returns) a scalar gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, kindGauge, nil, func() *family { return &family{gauge: &Gauge{}} })
	return f.gauge
}

// GaugeVec registers (or returns) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	f := r.register(name, help, kindGauge, labels, func() *family {
		return &family{gaugeVec: &GaugeVec{labels: labels}}
	})
	return f.gaugeVec
}

// GaugeFunc registers a gauge whose value is computed at render time (e.g. a
// cache hit ratio derived from two counters).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, kindGaugeFunc, nil, func() *family { return &family{gaugeFn: fn} })
}

// Histogram registers (or returns) a scalar histogram; nil bounds default to
// DefLatencyBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	f := r.register(name, help, kindHistogram, nil, func() *family {
		return &family{histogram: NewHistogram(bounds)}
	})
	return f.histogram
}

// HistogramVec registers (or returns) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	f := r.register(name, help, kindHistogram, labels, func() *family {
		return &family{histogramVec: &HistogramVec{labels: labels, bounds: bounds}}
	})
	return f.histogramVec
}

// sortedFamilies snapshots the families in name order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// WritePrometheus renders every registered instrument in the Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, f := range r.sortedFamilies() {
		f.renderText(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) renderText(b *strings.Builder) {
	typ := "counter"
	switch f.kind {
	case kindGauge, kindGaugeFunc:
		typ = "gauge"
	case kindHistogram:
		typ = "histogram"
	}
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, typ)
	switch f.kind {
	case kindCounter:
		if f.labels == nil {
			fmt.Fprintf(b, "%s %d\n", f.name, f.counter.Value())
			return
		}
		for _, kv := range sortedChildren(&f.counterVec.children) {
			fmt.Fprintf(b, "%s%s %d\n", f.name, labelString(f.labels, kv.key, ""), kv.val.(*Counter).Value())
		}
	case kindGauge:
		if f.labels == nil {
			fmt.Fprintf(b, "%s %d\n", f.name, f.gauge.Value())
			return
		}
		for _, kv := range sortedChildren(&f.gaugeVec.children) {
			fmt.Fprintf(b, "%s%s %d\n", f.name, labelString(f.labels, kv.key, ""), kv.val.(*Gauge).Value())
		}
	case kindGaugeFunc:
		fmt.Fprintf(b, "%s %s\n", f.name, formatFloat(f.gaugeFn()))
	case kindHistogram:
		if f.labels == nil {
			renderHistogram(b, f.name, f.histogram, f.labels, "")
			return
		}
		for _, kv := range sortedChildren(&f.histogramVec.children) {
			renderHistogram(b, f.name, kv.val.(*Histogram), f.labels, kv.key)
		}
	}
}

func renderHistogram(b *strings.Builder, name string, h *Histogram, labels []string, key string) {
	cum, count, sum := h.snapshot()
	for i, bound := range h.bounds {
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, labelString(labels, key, formatFloat(bound)), cum[i])
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, labelString(labels, key, "+Inf"), cum[len(cum)-1])
	fmt.Fprintf(b, "%s_sum%s %s\n", name, labelString(labels, key, ""), formatFloat(sum))
	fmt.Fprintf(b, "%s_count%s %d\n", name, labelString(labels, key, ""), count)
}

type childKV struct {
	key string
	val any
}

func sortedChildren(m *sync.Map) []childKV {
	var out []childKV
	m.Range(func(k, v any) bool {
		out = append(out, childKV{k.(string), v})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// labelString renders {l1="v1",l2="v2"[,le="bound"]}; empty when there is
// nothing to render.
func labelString(labels []string, key, le string) string {
	if len(labels) == 0 && le == "" {
		return ""
	}
	var parts []string
	if len(labels) > 0 {
		values := strings.Split(key, labelSep)
		for i, l := range labels {
			v := ""
			if i < len(values) {
				v = values[i]
			}
			parts = append(parts, fmt.Sprintf("%s=%q", l, escapeLabel(v)))
		}
	}
	if le != "" {
		parts = append(parts, fmt.Sprintf("le=%q", le))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v // %q adds quote escaping
}

func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Snapshot returns a JSON-friendly view of the registry: scalar instruments
// map to their value, labeled ones to a {labelValues: value} object, and
// histograms to {count, sum, p50, p90, p99}.  The serve front-end merges it
// into GET /v1/stats.
func (r *Registry) Snapshot() map[string]any {
	out := make(map[string]any)
	for _, f := range r.sortedFamilies() {
		out[f.name] = f.snapshotJSON()
	}
	return out
}

func (f *family) snapshotJSON() any {
	childKey := func(key string) string {
		return strings.Join(strings.Split(key, labelSep), ",")
	}
	switch f.kind {
	case kindCounter:
		if f.labels == nil {
			return f.counter.Value()
		}
		m := make(map[string]any)
		for _, kv := range sortedChildren(&f.counterVec.children) {
			m[childKey(kv.key)] = kv.val.(*Counter).Value()
		}
		return m
	case kindGauge:
		if f.labels == nil {
			return f.gauge.Value()
		}
		m := make(map[string]any)
		for _, kv := range sortedChildren(&f.gaugeVec.children) {
			m[childKey(kv.key)] = kv.val.(*Gauge).Value()
		}
		return m
	case kindGaugeFunc:
		return f.gaugeFn()
	case kindHistogram:
		if f.labels == nil {
			return histogramJSON(f.histogram)
		}
		m := make(map[string]any)
		for _, kv := range sortedChildren(&f.histogramVec.children) {
			m[childKey(kv.key)] = histogramJSON(kv.val.(*Histogram))
		}
		return m
	}
	return nil
}

func histogramJSON(h *Histogram) map[string]any {
	return map[string]any{
		"count": h.Count(),
		"sum":   h.Sum(),
		"p50":   h.Quantile(0.50),
		"p90":   h.Quantile(0.90),
		"p99":   h.Quantile(0.99),
	}
}
