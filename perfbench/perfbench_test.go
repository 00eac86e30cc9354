package main

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geojson"
	"repro/internal/queryl"
	"repro/internal/spatial"
)

func TestPercentileIsExact(t *testing.T) {
	var samples []time.Duration
	for _, v := range []int{7, 3, 10, 1, 5, 9, 2, 8, 4, 6} {
		samples = append(samples, time.Duration(v)*time.Millisecond)
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{
		{0, 1 * time.Millisecond},
		{0.5, 5500 * time.Microsecond},
		{0.9, 9100 * time.Microsecond},
		{1, 10 * time.Millisecond},
	} {
		if got := percentile(samples, c.p); got != c.want {
			t.Errorf("percentile(1..10 ms, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if samples[0] != 7*time.Millisecond {
		t.Error("percentile reordered its input")
	}
	if got := percentile([]time.Duration{42}, 0.9); got != 42 {
		t.Errorf("one sample: p90 = %v, want 42ns", got)
	}
}

func TestSeedFixesInputs(t *testing.T) {
	for _, w := range workloads {
		a, err := newPlan(w, 7, 1)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		b, err := newPlan(w, 7, 1)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		c, err := newPlan(w, 8, 1)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !bytes.Equal(a.inputSignature(), b.inputSignature()) {
			t.Errorf("%s: seed 7 generated two different op sequences", w)
		}
		if bytes.Equal(a.inputSignature(), c.inputSignature()) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", w)
		}
		if got, want := len(a.measuredOps(newReferences())), numOps(w, 1); got != want {
			t.Errorf("%s: %d measured ops, want %d", w, got, want)
		}
	}
}

// nonEmpty is the instance restricted to its non-empty regions, the schema
// a GeoJSON document of it can carry.
func nonEmpty(t *testing.T, inst *spatial.Instance) *spatial.Instance {
	var names []string
	for _, n := range inst.Schema().Names() {
		if !inst.Region(n).IsEmpty() {
			names = append(names, n)
		}
	}
	schema, err := spatial.NewSchema(names...)
	if err != nil {
		t.Fatal(err)
	}
	out := spatial.NewInstance(schema)
	for _, n := range names {
		if err := out.Set(n, inst.Region(n)); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestGeoJSONRoundTrip(t *testing.T) {
	for _, kind := range ingestKinds {
		for _, seed := range []int64{1, 99} {
			src, err := kind.make(seed)
			if err != nil {
				t.Fatal(err)
			}
			imported, err := geojson.Import(encodeGeoJSON(src))
			if err != nil {
				t.Fatalf("%s seed %d: import: %v", kind.name, seed, err)
			}
			want := nonEmpty(t, src)
			if got, w := imported.Schema().Names(), want.Schema().Names(); len(got) != len(w) || len(got) == 0 {
				t.Fatalf("%s seed %d: imported regions %v, want the non-empty %v", kind.name, seed, got, w)
			}
			same, err := core.TopologicallyEquivalent(imported, want)
			if err != nil {
				t.Fatal(err)
			}
			if !same {
				t.Errorf("%s seed %d: the imported map is not topologically equivalent to its source", kind.name, seed)
			}
		}
	}
}

func TestIngestAsksNameNonEmptyRegions(t *testing.T) {
	p, err := newPlan("ingest", 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	asks := append([]askItem(nil), p.prime...)
	for _, o := range p.maps {
		asks = append(asks, o.ask)
	}
	for _, a := range asks {
		for _, r := range a.regions {
			if !a.inst.Schema().Has(r) || a.inst.Region(r).IsEmpty() {
				t.Errorf("ask %s(%v) names %q, which the imported map has no geometry for", a.alias, a.regions, r)
			}
		}
	}
}

// TestReopenAnswersIgnoreTranslation checks that every reopen sentence has
// the same answer directly on each translated copy of a shape and by the
// fixpoint strategy the server uses. The offset (207932, 9997) moves one
// cell's sample witness past another's in x, which changes the sampled
// answer to a sentence that is not topological.
func TestReopenAnswersIgnoreTranslation(t *testing.T) {
	shapes, err := reopenShapes()
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false, true}
	offsets := [][2]int64{{0, 0}, {207932, 9997}, {99999, 99999}, {1 << 20, 7}}
	for si, shape := range shapes {
		for ti, tpl := range reopenTemplates {
			q, err := queryl.Parse(fmt.Sprintf(tpl, ""))
			if err != nil {
				t.Fatal(err)
			}
			ask := func(inst *spatial.Instance, s core.Strategy) bool {
				db, err := core.Open(inst)
				if err != nil {
					t.Fatal(err)
				}
				got, err := db.Ask(q.Formula, s)
				if err != nil {
					t.Fatal(err)
				}
				return got
			}
			if got := ask(shape, core.ViaInvariantFixpoint); got != want[ti] {
				t.Errorf("shape %d, template %d: fixpoint answer %v, want %v", si, ti, got, want[ti])
			}
			for _, o := range offsets {
				inst, err := translated(shape, o[0], o[1])
				if err != nil {
					t.Fatal(err)
				}
				if got := ask(inst, core.Direct); got != want[ti] {
					t.Errorf("shape %d moved by %v, template %d: direct answer %v, want %v", si, o, ti, got, want[ti])
				}
			}
		}
	}
}

func TestComparedCountersExist(t *testing.T) {
	exposed := registryCounts()
	for _, c := range comparedCounters {
		if _, ok := exposed[c]; !ok {
			t.Errorf("%s is not in this process's exposition", c)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "op", parent: -1, start: 0, end: 10 * ms},
		{name: "child", parent: 0, start: 1 * ms, end: 5 * ms},
		{name: "grandchild", parent: 1, start: 2 * ms, end: 3 * ms},
		{name: "child", parent: 0, start: 6 * ms, end: 8 * ms},
	}
	got := selfTimes(spans)
	want := []time.Duration{4 * ms, 3 * ms, 1 * ms, 2 * ms}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %v, want %v", i, got[i], want[i])
		}
	}
}
