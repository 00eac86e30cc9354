package obs

import (
	"bufio"
	"math"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("test_total", "a counter"); again != c {
		t.Fatal("re-registering the same counter returned a different instrument")
	}
	g := r.Gauge("test_gauge", "a gauge")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestCounterVecChildren(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_labeled_total", "labeled", "route", "class")
	v.With("/v1/ask", "2xx").Add(3)
	v.With("/v1/ask", "4xx").Inc()
	if got := v.With("/v1/ask", "2xx").Value(); got != 3 {
		t.Fatalf("child = %d, want 3", got)
	}
	// Lookup reads existing children and never creates one.
	if c := v.Lookup("/v1/ask", "2xx"); c == nil || c.Value() != 3 {
		t.Fatalf("Lookup of an existing child = %v", c)
	}
	if c := v.Lookup("/v1/ask", "5xx"); c != nil {
		t.Fatalf("Lookup of a missing child = %v, want nil", c)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	want := `test_labeled_total{route="/v1/ask",class="2xx"} 3`
	if !strings.Contains(out, want) {
		t.Fatalf("render missing %q:\n%s", want, out)
	}
	if strings.Contains(out, `class="5xx"`) {
		t.Fatalf("Lookup created a child:\n%s", out)
	}
}

// TestHistogramBuckets pins the bucket routing math: inclusive upper bounds,
// an implicit +Inf bucket, cumulative rendering.
func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 1.5, 10, 99, 1000} {
		h.Observe(v)
	}
	cum, count, sum := h.snapshot()
	if count != 6 {
		t.Fatalf("count = %d, want 6", count)
	}
	if want := 0.5 + 1 + 1.5 + 10 + 99 + 1000; math.Abs(sum-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", sum, want)
	}
	// le=1: {0.5, 1}; le=10: +{1.5, 10}; le=100: +{99}; +Inf: +{1000}.
	wantCum := []uint64{2, 4, 5, 6}
	for i, w := range wantCum {
		if cum[i] != w {
			t.Fatalf("cumulative[%d] = %d, want %d (all: %v)", i, cum[i], w, cum)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		h := NewHistogram([]float64{1, 2})
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			if got := h.Quantile(q); got != 0 {
				t.Fatalf("empty histogram Quantile(%v) = %v, want 0", q, got)
			}
		}
	})
	t.Run("one-sample", func(t *testing.T) {
		h := NewHistogram([]float64{1, 2, 4})
		h.Observe(1.5) // lands in (1, 2]
		for _, q := range []float64{0.5, 0.99} {
			got := h.Quantile(q)
			if got < 1 || got > 2 {
				t.Fatalf("Quantile(%v) = %v, want within the sample's bucket (1, 2]", q, got)
			}
		}
	})
	t.Run("uniform", func(t *testing.T) {
		// 100 samples spread evenly over (0, 100] in bucket bounds of 10:
		// the interpolated p50 must land near 50, p90 near 90.
		bounds := make([]float64, 10)
		for i := range bounds {
			bounds[i] = float64((i + 1) * 10)
		}
		h := NewHistogram(bounds)
		for i := 1; i <= 100; i++ {
			h.Observe(float64(i))
		}
		if p50 := h.Quantile(0.5); math.Abs(p50-50) > 10 {
			t.Fatalf("p50 = %v, want ≈50", p50)
		}
		if p90 := h.Quantile(0.9); math.Abs(p90-90) > 10 {
			t.Fatalf("p90 = %v, want ≈90", p90)
		}
		if p0 := h.Quantile(0); p0 < 0 || p0 > 10 {
			t.Fatalf("p0 = %v, want within first bucket", p0)
		}
	})
	t.Run("overflow-clamps", func(t *testing.T) {
		h := NewHistogram([]float64{1})
		h.Observe(50) // +Inf bucket
		if got := h.Quantile(0.99); got != 1 {
			t.Fatalf("overflow quantile = %v, want clamp to largest bound 1", got)
		}
	})
	t.Run("out-of-range-q", func(t *testing.T) {
		h := NewHistogram([]float64{1, 2})
		h.Observe(0.5)
		if got := h.Quantile(-1); got < 0 || got > 1 {
			t.Fatalf("Quantile(-1) = %v, want clamped into first bucket", got)
		}
		if got := h.Quantile(2); got < 0 || got > 1 {
			t.Fatalf("Quantile(2) = %v, want clamped", got)
		}
	})
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(DefLatencyBuckets)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != 8000 {
		t.Fatalf("count = %d, want 8000", got)
	}
	if got := h.Sum(); math.Abs(got-8.0) > 1e-6 {
		t.Fatalf("sum = %v, want 8.0", got)
	}
}

// promLine matches one valid Prometheus text-format sample or comment line.
var promLine = regexp.MustCompile(
	`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*` +
		`|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)( [0-9]+)?)$`)

func checkPrometheusText(t *testing.T, out string) {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(out))
	lines := 0
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		lines++
		if !promLine.MatchString(line) {
			t.Errorf("invalid exposition line: %q", line)
		}
	}
	if lines == 0 {
		t.Fatal("no exposition output")
	}
}

func TestWritePrometheusValid(t *testing.T) {
	r := NewRegistry()
	r.Counter("obs_test_requests_total", "requests").Add(3)
	r.Gauge("obs_test_inflight", "inflight").Set(2)
	r.GaugeFunc("obs_test_ratio", "a ratio", func() float64 { return 0.75 })
	h := r.Histogram("obs_test_latency_seconds", "latency", DefLatencyBuckets)
	h.ObserveDuration(3 * time.Millisecond)
	hv := r.HistogramVec("obs_test_route_seconds", "per route", nil, "route")
	hv.With("/v1/ask").Observe(0.01)
	cv := r.CounterVec("obs_test_status_total", "statuses", "route", "class")
	cv.With("/v1/ask", "2xx").Inc()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	checkPrometheusText(t, out)
	for _, want := range []string{
		"# TYPE obs_test_latency_seconds histogram",
		`obs_test_latency_seconds_bucket{le="+Inf"} 1`,
		"obs_test_latency_seconds_count 1",
		"obs_test_requests_total 3",
		"obs_test_ratio 0.75",
		`obs_test_route_seconds_bucket{route="/v1/ask",le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("snap_total", "c").Add(2)
	h := r.Histogram("snap_seconds", "h", []float64{1, 2})
	h.Observe(1.5)
	snap := r.Snapshot()
	if got := snap["snap_total"].(uint64); got != 2 {
		t.Fatalf("snapshot counter = %v, want 2", got)
	}
	hm := snap["snap_seconds"].(map[string]any)
	if hm["count"].(uint64) != 1 {
		t.Fatalf("snapshot histogram = %v, want count 1", hm)
	}
	p99 := hm["p99"].(float64)
	if p99 < 1 || p99 > 2 {
		t.Fatalf("snapshot p99 = %v, want within (1, 2]", p99)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("clash_total", "c")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("clash_total", "g")
}
