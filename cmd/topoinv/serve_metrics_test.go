package main

import (
	"bufio"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// promSampleRe accepts one Prometheus text-exposition sample line:
// name{label="value",...} number.
var promSampleRe = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*` +
		`(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})?` +
		` (-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|\+Inf|-Inf|NaN)$`)

// scrapeMetrics fetches /metrics, fails the test on any malformed exposition
// line or on a family declared twice (registered both process-wide and in
// the engine's registry), and returns every sample keyed by its full name
// (labels included).
func scrapeMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("GET /metrics: Content-Type %q, want the 0.0.4 text exposition type", ct)
	}
	samples := make(map[string]float64)
	typed := make(map[string]bool)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if family, ok := strings.CutPrefix(line, "# TYPE "); ok {
			family, _, _ = strings.Cut(family, " ")
			if typed[family] {
				t.Fatalf("family %s is declared twice in one exposition", family)
			}
			typed[family] = true
			continue
		}
		if line == "" || strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if !promSampleRe.MatchString(line) {
			t.Fatalf("malformed exposition line: %q", line)
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparsable sample value in %q: %v", line, err)
		}
		samples[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples
}

// sumPrefix sums every sample of one family (exact name, or name{...}).
func sumPrefix(samples map[string]float64, family string) float64 {
	var sum float64
	for name, v := range samples {
		if name == family || strings.HasPrefix(name, family+"{") {
			sum += v
		}
	}
	return sum
}

// TestMetricsEndpoint checks the exposition parses and that all five
// instrumented layers (engine, store, sweep, arrangement, HTTP) publish
// families before any traffic: the process-wide families register as soon
// as the packages link, the engine's when the engine is created.
func TestMetricsEndpoint(t *testing.T) {
	ts := testServer(t)
	body := scrapeText(t, ts.URL)
	for _, family := range []string{
		"topoinv_engine_query_duration_seconds",
		"topoinv_engine_answer_cache_hit_ratio",
		"topoinv_store_op_duration_seconds",
		"topoinv_sweep_events_total",
		"topoinv_arrangement_build_seconds",
		"topoinv_http_requests_total",
	} {
		if !strings.Contains(body, "# TYPE "+family+" ") {
			t.Errorf("/metrics is missing family %s", family)
		}
	}
	scrapeMetrics(t, ts.URL) // line-level validation
}

func scrapeText(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestMetricsMoveAfterAsk pins the tentpole acceptance criterion: an ask
// observably moves the engine latency histogram, the answer-cache counters
// and the per-route HTTP counters.  The HTTP registry is process-global
// (other tests in the package also drive it), so every assertion is a delta.
func TestMetricsMoveAfterAsk(t *testing.T) {
	ts := testServer(t)

	var loaded loadResponse
	if resp := postJSON(t, ts.URL+"/v1/instances", loadRequest{Workload: "nested", Scale: 1}, &loaded); resp.StatusCode != http.StatusOK {
		t.Fatalf("load: status %d", resp.StatusCode)
	}

	before := scrapeMetrics(t, ts.URL)

	ask := askRequest{ID: loaded.ID, Formula: "exists u . in(P, u)", Strategy: "auto"}
	var first, second askResponse
	if resp := postJSON(t, ts.URL+"/v1/ask", ask, &first); resp.StatusCode != http.StatusOK {
		t.Fatalf("ask: status %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/v1/ask", ask, &second); resp.StatusCode != http.StatusOK {
		t.Fatalf("ask: status %d", resp.StatusCode)
	}
	if !second.AnswerHit {
		t.Errorf("second identical ask missed the answer cache: %+v", second)
	}

	after := scrapeMetrics(t, ts.URL)
	deltas := []struct {
		family string
		min    float64
	}{
		{"topoinv_engine_query_duration_seconds_count", 2},
		{"topoinv_engine_queries_total", 2},
		{"topoinv_engine_answer_cache_misses_total", 1},
		{"topoinv_engine_answer_cache_hits_total", 1},
		{"topoinv_http_request_duration_seconds_count", 2},
	}
	for _, d := range deltas {
		got := sumPrefix(after, d.family) - sumPrefix(before, d.family)
		if got < d.min {
			t.Errorf("%s moved by %v after two asks, want >= %v", d.family, got, d.min)
		}
	}
	askKey := `topoinv_http_requests_total{route="/v1/ask",status_class="2xx"}`
	if got := after[askKey] - before[askKey]; got < 2 {
		t.Errorf("%s moved by %v, want >= 2", askKey, got)
	}
}

// TestStatsEnvelope checks the PR-6 /v1/stats additions: no-cache headers,
// monotonic uptime, build info and the embedded metrics snapshot, without
// breaking the flat EngineStats fields older clients decode.
func TestStatsEnvelope(t *testing.T) {
	ts := testServer(t)
	var st statsResponse
	resp := getJSON(t, ts.URL+"/v1/stats", &st)
	if cc := resp.Header.Get("Cache-Control"); !strings.Contains(cc, "no-store") {
		t.Errorf("Cache-Control = %q, want no-store", cc)
	}
	if st.UptimeSeconds <= 0 {
		t.Errorf("uptime_seconds = %v, want > 0", st.UptimeSeconds)
	}
	if len(st.Metrics) == 0 {
		t.Error("stats carry no metrics snapshot")
	}
	if _, ok := st.Metrics["topoinv_engine_queries_total"]; !ok {
		t.Error("metrics snapshot is missing topoinv_engine_queries_total")
	}
}

// TestAskTimingsDebug checks ?debug=timings returns a span tree whose stages
// include the invariant fetch and evaluation, and that the field stays
// absent without the flag.
func TestAskTimingsDebug(t *testing.T) {
	ts := testServer(t)
	var loaded loadResponse
	postJSON(t, ts.URL+"/v1/instances", loadRequest{Workload: "nested", Scale: 1}, &loaded)

	// Traced ask first: a prior identical ask would land in the answer cache
	// and the traced request would short-circuit before the eval stage.
	ask := askRequest{ID: loaded.ID, Formula: "exists u . in(P, u)"}
	var traced askResponse
	if resp := postJSON(t, ts.URL+"/v1/ask?debug=timings", ask, &traced); resp.StatusCode != http.StatusOK {
		t.Fatalf("ask: status %d", resp.StatusCode)
	}
	var plain askResponse
	postJSON(t, ts.URL+"/v1/ask", ask, &plain)
	if plain.Timings != nil {
		t.Error("timings present without ?debug=timings")
	}
	if traced.Timings == nil {
		t.Fatal("?debug=timings returned no timings")
	}
	if traced.Timings.Stage != "ask" || traced.Timings.DurationNS <= 0 {
		t.Errorf("bad root span: %+v", traced.Timings)
	}
	stages := map[string]bool{}
	for _, c := range traced.Timings.Children {
		stages[c.Stage] = true
	}
	for _, want := range []string{"answer_cache", "eval"} {
		if !stages[want] {
			t.Errorf("span tree lacks stage %q: %+v", want, traced.Timings.Children)
		}
	}

	// Batch items carry their own trees behind the same flag.
	var batch []batchItemResponse
	breq := batchRequest{Requests: []askRequest{ask, ask}}
	if resp := postJSON(t, ts.URL+"/v1/batch?debug=timings", breq, &batch); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d", resp.StatusCode)
	}
	for i, item := range batch {
		if item.Timings == nil {
			t.Errorf("batch item %d has no timings", i)
		}
	}
}
