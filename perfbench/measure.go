package main

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// measurement is everything one measured phase recorded.
type measurement struct {
	phase         phaseResult
	before, after metrics // server /metrics around the phase
	// split ops ran before mid was scraped; the traced replay covers them.
	split   int
	mid     metrics
	cpu     time.Duration
	peakRSS float64 // MB
	steal   float64 // host steal %, over the phase

	setups                         []time.Duration
	setupStoreBytes, setupDocBytes float64
	opDocBytes                     float64 // ingest: GeoJSON bytes the ops post
}

// measure runs the ops against the server and samples the server's
// counters, CPU time and host steal around them. When split is below
// len(ops), the counters are also scraped once the first split ops have
// completed.
func measure(srv *server, ops []op, conns, split int) (*measurement, error) {
	c := newClient(srv.base, conns)
	defer c.close()
	m := &measurement{split: split}
	var err error
	if m.before, err = srv.scrape(); err != nil {
		return nil, err
	}
	cpu0, err := procCPU(srv.pid())
	if err != nil {
		return nil, err
	}
	host0 := hostCPU()
	m.phase = runClosedLoop(c, ops[:split], conns)
	if split < len(ops) {
		if m.mid, err = srv.scrape(); err != nil {
			return nil, err
		}
		m.phase = m.phase.then(runClosedLoop(c, ops[split:], conns))
	}
	host1 := hostCPU()
	cpu1, err := procCPU(srv.pid())
	if err != nil {
		return nil, err
	}
	if m.after, err = srv.scrape(); err != nil {
		return nil, err
	}
	if m.mid == nil {
		m.mid = m.after
	}
	if m.peakRSS, err = procPeakRSS(srv.pid()); err != nil {
		return nil, err
	}
	m.cpu = cpu1 - cpu0
	m.steal = stealPct(host0, host1)
	return m, nil
}

func (m *measurement) delta(name string) float64 { return delta(m.before, m.after, name) }

func (m *measurement) ops() int { return len(m.phase.latencies) }

func (m *measurement) perOp(name string) float64 { return m.delta(name) / float64(m.ops()) }

// hitRatio is hits / (hits + misses) over the phase, 0 without lookups.
func (m *measurement) hitRatio(hits, misses string) float64 {
	h, x := m.delta(hits), m.delta(misses)
	if h+x == 0 {
		return 0
	}
	return h / (h + x)
}

// handlerSeconds is the time the server spent in API handlers over the
// phase; the /metrics scrapes themselves are left out.
func (m *measurement) handlerSeconds() float64 {
	const name = "topoinv_http_request_duration_seconds_sum"
	var t float64
	for series, v := range m.after {
		if strings.HasPrefix(series, name+"{") && !strings.Contains(series, `route="/metrics"`) {
			t += v - m.before[series]
		}
	}
	return t
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// endToEnd derives the metrics a user of the server sees.
func (m *measurement) endToEnd(p *plan) map[string]metric {
	n := m.ops()
	lat := m.phase.latencies
	stored := m.setupStoreBytes / m.setupDocBytes
	if p.workload == "ingest" {
		stored = m.delta("topoinv_store_bytes_written_total") / m.opDocBytes
	}
	return map[string]metric{
		"ops_per_s":                   {float64(n) / m.phase.wall.Seconds(), "ops/s", n},
		"latency_p50_ms":              {ms(percentile(lat, 0.5)), "ms", n},
		"latency_p90_ms":              {ms(percentile(lat, 0.9)), "ms", n},
		"server_cpu_ms_per_op":        {ms(m.cpu) / float64(n), "ms", n},
		"peak_rss_mb":                 {m.peakRSS, "MB", 1},
		"setup_s":                     {median(m.setups).Seconds(), "s", len(m.setups)},
		"stored_bytes_per_input_byte": {stored, "ratio", 1},
	}
}

// scrapeLayers derives the per-layer metrics the /metrics deltas give
// exactly.
func (m *measurement) scrapeLayers(p *plan) map[string]metric {
	n := m.ops()
	handler := 1000 * m.handlerSeconds() / float64(n)
	var engineMS float64
	if c := m.delta("topoinv_engine_query_duration_seconds_count"); c > 0 {
		engineMS = 1000 * m.delta("topoinv_engine_query_duration_seconds_sum") / c
	}
	return map[string]metric{
		"serve.handler_ms":           {handler, "ms", n},
		"serve.outside_handler_ms":   {ms(mean(m.phase.latencies)) - handler, "ms", n},
		"engine.answer_hit_ratio":    {m.hitRatio("topoinv_engine_answer_cache_hits_total", "topoinv_engine_answer_cache_misses_total"), "ratio", n},
		"engine.invariant_hit_ratio": {m.hitRatio("topoinv_engine_invariant_cache_hits_total", "topoinv_engine_invariant_cache_misses_total"), "ratio", n},
		"engine.evaluator_hit_ratio": {m.hitRatio("topoinv_engine_evaluator_cache_hits_total", "topoinv_engine_evaluator_cache_misses_total"), "ratio", n},
		"engine.query_ms":            {engineMS, "ms", n},
		"pointfo.fallbacks_per_op":   {m.perOp("topoinv_pointfo_compile_fallbacks_total"), "count", n},
		"arrangement.builds_per_op":  {m.perOp("topoinv_arrangement_build_seconds_count"), "count", n},
		"sweep.events_per_op":        {m.perOp("topoinv_sweep_events_total"), "count", n},
		"store.bytes_written_per_op": {m.perOp("topoinv_store_bytes_written_total"), "bytes", n},
		"store.hits_per_op":          {m.perOp("topoinv_engine_store_hits_total"), "count", n},
		"host.steal_pct":             {m.steal, "%", 1},
	}
}

// propertyChecks verifies that the run exercised what its workload is
// defined to exercise.
func propertyChecks(p *plan, m *measurement) []string {
	n := float64(m.ops())
	var out []string
	want := func(what string, got, want float64) {
		if got != want {
			out = append(out, fmt.Sprintf("%s: %s is %v, want %v", p.workload, what, got, want))
		}
	}
	switch p.workload {
	case "ask-repeat":
		want("answer-cache hits", m.delta("topoinv_engine_answer_cache_hits_total"), n)
		want("answer-cache misses", m.delta("topoinv_engine_answer_cache_misses_total"), 0)
	case "ask-fresh":
		want("answer-cache misses", m.delta("topoinv_engine_answer_cache_misses_total"), n)
		want("evaluator-cache hits", m.delta("topoinv_engine_evaluator_cache_hits_total"), n)
		want("evaluator-cache misses", m.delta("topoinv_engine_evaluator_cache_misses_total"), 0)
	case "ingest":
		want("invariant computations", m.delta("topoinv_engine_invariant_build_seconds_count"), n)
	case "reopen":
		want("store hits", m.delta("topoinv_engine_store_hits_total"), n)
		want("invariant computations since the restart", m.after.sum("topoinv_engine_invariant_build_seconds_count"), 0)
	}
	return out
}
