package engine

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestDoRecordsSpanStages checks that a request carrying a span recorder
// gets the per-stage children (answer cache, invariant, eval on a cold
// path; answer cache alone on a warm one).
func TestDoRecordsSpanStages(t *testing.T) {
	e := New()
	inst := nested(t, 2)
	q := nonEmpty("P")

	span := obs.StartSpan("ask")
	res := e.Do(Request{Instance: inst, Query: q, Span: span}, core.ViaInvariantFixpoint)
	span.End()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	stages := map[string]bool{}
	for _, c := range span.Timings().Children {
		stages[c.Stage] = true
	}
	for _, want := range []string{"answer_cache", "invariant", "eval"} {
		if !stages[want] {
			t.Errorf("cold ask span lacks stage %q (got %v)", want, stages)
		}
	}

	warm := obs.StartSpan("ask")
	res = e.Do(Request{Instance: inst, Query: q, Span: warm}, core.ViaInvariantFixpoint)
	warm.End()
	if res.Err != nil || !res.AnswerHit {
		t.Fatalf("warm ask: %+v", res)
	}
	for _, c := range warm.Timings().Children {
		if c.Stage == "eval" {
			t.Error("answer-cache hit still recorded an eval stage")
		}
	}
}

// TestEnginesDoNotShareMetrics: each engine counts into its own registry,
// so asks on one leave another's Stats and exposition at zero, and reading
// Stats creates no labelled children in the exposition.
func TestEnginesDoNotShareMetrics(t *testing.T) {
	a, b := New(), New()
	inst := nested(t, 2)
	for _, s := range []core.Strategy{core.Direct, core.ViaInvariantFixpoint, core.Auto, core.Auto} {
		if res := a.AskResult(inst, nonEmpty("P"), s); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if st := a.Stats(); st.Computes != 1 || st.AutoQueries != 2 || len(st.Strategies) != 2 {
		t.Fatalf("engine A did not count its asks: %+v", st)
	}
	if st, fresh := b.Stats(), New().Stats(); !reflect.DeepEqual(st, fresh) {
		t.Errorf("engine B's Stats moved with A's traffic:\n got %+v\nwant %+v", st, fresh)
	}
	render := func(e *Engine) string {
		var sb strings.Builder
		if err := e.Metrics().WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if text := render(a); !strings.Contains(text, "\ntopoinv_engine_invariant_cache_misses_total 1\n") {
		t.Errorf("engine A's exposition lacks its invariant miss:\n%s", text)
	}
	for _, line := range strings.Split(render(b), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasSuffix(line, " 0") {
			t.Errorf("engine B sample moved with A's traffic: %s", line)
		}
		if strings.Contains(line, "{") && !strings.Contains(line, "{le=") {
			t.Errorf("engine B exposition has a labelled child: %s", line)
		}
	}
}

// The tentpole's zero-overhead criterion: with a nil span the instrumented
// stages cost one pointer test each.  Run both benchmarks over the same
// warm answer-cached ask; the disabled/enabled gap isolates the recorder.
//
//	go test ./internal/engine/ -run='^$' -bench=BenchmarkAskSpan
func benchmarkAsk(b *testing.B, withSpan bool) {
	e := New()
	inst := nested(b, 3)
	q := nonEmpty("P")
	if res := e.Do(Request{Instance: inst, Query: q}, core.ViaInvariantFixpoint); res.Err != nil {
		b.Fatal(res.Err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var span *obs.Span
		if withSpan {
			span = obs.StartSpan("ask")
		}
		res := e.Do(Request{Instance: inst, Query: q, Span: span}, core.ViaInvariantFixpoint)
		span.End()
		if res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

func BenchmarkAskSpanDisabled(b *testing.B) { benchmarkAsk(b, false) }
func BenchmarkAskSpanEnabled(b *testing.B)  { benchmarkAsk(b, true) }
