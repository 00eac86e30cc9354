package engine

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/pointfo"
	"repro/internal/queryl"
	"repro/internal/region"
	"repro/internal/spatial"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden answer file")

const goldenAnswers = "testdata/golden_answers.json"

// answerRow is one (instance, sentence, strategy) answer.  Resolved is set
// for auto rows; Err holds an error's kind (the package prefix of its
// message) instead of its wording.
type answerRow struct {
	Instance string `json:"instance"`
	Query    string `json:"query"`
	Strategy string `json:"strategy"`
	Resolved string `json:"resolved,omitempty"`
	Answer   *bool  `json:"answer,omitempty"`
	Err      string `json:"error,omitempty"`
}

// counterRow is the engine's counters after one instance's rows.
type counterRow struct {
	Instance      string            `json:"instance"`
	AutoQueries   uint64            `json:"auto_queries"`
	AutoFallbacks uint64            `json:"auto_fallbacks"`
	AnswerHits    uint64            `json:"answer_hits"`
	AnswerMisses  uint64            `json:"answer_misses"`
	Computes      uint64            `json:"computes"`
	Queries       map[string]uint64 `json:"queries"`
	Errors        map[string]uint64 `json:"errors"`
}

type answerInstance struct {
	name string
	mk   func() (*spatial.Instance, error)
}

// answerInstances are the hand fixtures and the five generators at the
// scale the evaluator's workload test uses.
func answerInstances() []answerInstance {
	single := func(r region.Region) func() (*spatial.Instance, error) {
		return func() (*spatial.Instance, error) {
			return spatial.Build(spatial.MustSchema("P"), map[string]region.Region{"P": r})
		}
	}
	points := region.Region{Features: []region.Feature{
		region.PointFeature(geom.Pt(0, 0)), region.PointFeature(geom.Pt(0, 5)),
	}}
	annuli := region.Region{Features: []region.Feature{
		region.AreaFeature(geom.Rect(0, 0, 30, 30), geom.Rect(5, 5, 25, 25)),
		region.AreaFeature(geom.Rect(10, 10, 20, 20), geom.Rect(13, 13, 17, 17)),
	}}
	return []answerInstance{
		{"square", single(region.Rect(0, 0, 10, 10))},
		{"closed-polyline", single(region.FromPolyline(geom.MustPolyline(
			geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 10), geom.Pt(0, 10), geom.Pt(0, 0))))},
		{"horizontal-segment", single(region.FromPolyline(geom.MustPolyline(geom.Pt(0, 0), geom.Pt(10, 0))))},
		{"two-points", single(points)},
		{"nested-annuli", single(annuli)},
		{"readme-rectangles", func() (*spatial.Instance, error) {
			return spatial.Build(spatial.MustSchema("P", "Q"), map[string]region.Region{
				"P": region.Rect(0, 0, 10, 10), "Q": region.Rect(3, 3, 6, 6),
			})
		}},
		{"landuse", func() (*spatial.Instance, error) { return workload.LandUse(workload.DefaultLandUse(1)) }},
		{"hydrography", func() (*spatial.Instance, error) { return workload.Hydrography(workload.DefaultHydrography(1)) }},
		{"commune", func() (*spatial.Instance, error) { return workload.Commune(workload.DefaultCommune(1)) }},
		{"nested", func() (*spatial.Instance, error) { return workload.NestedRegions(2) }},
		{"multicomponent", func() (*spatial.Instance, error) { return workload.MultiComponent(3) }},
	}
}

// answerSentences lists the sentences asked of an instance whose regions,
// in sorted order, are names; populated holds those with a point.  They are
// the evaluator workload test's set (per-region membership and interior,
// per-pair questions on the first four regions, three depth-3
// alternations), the five aliases on the first regions, and the counting
// and order probes on the first region.
func answerSentences(names, populated []string) []string {
	var qs []string
	for _, p := range names {
		qs = append(qs, fmt.Sprintf("exists u . in(%s, u)", p), fmt.Sprintf("exists u . interior(%s, u)", p))
	}
	pairs := names[:min(len(names), 4)]
	for _, p := range pairs {
		for _, q := range pairs {
			if p == q {
				continue
			}
			for _, alias := range []string{"intersects", "contained", "boundaryonly"} {
				s, _ := queryl.Alias(alias, p, q)
				qs = append(qs, s)
			}
		}
	}
	if len(populated) > 0 {
		a, c := populated[0], populated[len(populated)-1]
		qs = append(qs,
			fmt.Sprintf("exists v0 . in(%[1]s, v0) and (forall v1 . in(%[2]s, v1) and v1 <y v0 implies "+
				"(exists v2 . in(%[1]s, v2) and v1 <x v2 and (interior(%[1]s, v2) and not in(%[1]s, v2))))", a, c),
			fmt.Sprintf("exists u . in(%s, u) and (forall v . in(%s, v) implies (exists w . u <x w and v <y w))", a, c),
			fmt.Sprintf("forall u . interior(%[1]s, u) implies (exists v . v <x u and not in(%[2]s, v) and "+
				"(forall w . v <y w implies not in(%[2]s, w)))", a, c))
	}
	second := names[min(1, len(names)-1)]
	for _, alias := range queryl.AliasNames {
		args := []string{names[0], second}[:queryl.AliasArity(alias)]
		s, _ := queryl.Alias(alias, args...)
		qs = append(qs, s)
	}
	p := names[0]
	qs = append(qs,
		fmt.Sprintf("exists u, v . in(%[1]s, u) and in(%[1]s, v) and not u = v", p),
		fmt.Sprintf("exists u, v, w . in(%[1]s, u) and in(%[1]s, v) and in(%[1]s, w) and not u = v and not u = w and not v = w", p),
		fmt.Sprintf("exists u, v . interior(%[1]s, u) and interior(%[1]s, v) and not u = v", p),
		fmt.Sprintf("exists u, v, w, x . in(%[1]s, u) and in(%[1]s, v) and in(%[1]s, w) and in(%[1]s, x) and "+
			"not u = v and not u = w and not u = x and not v = w and not v = x and not w = x", p),
		fmt.Sprintf("exists u, v . in(%[1]s, u) and in(%[1]s, v) and u <y v", p),
		fmt.Sprintf("exists u, v . in(%[1]s, u) and in(%[1]s, v) and u <x v", p),
	)
	return qs
}

// errKind reduces an error to the package prefix of its message, so the
// golden file pins which layer refused a question, not its wording.
func errKind(err error) string {
	kind, _, _ := strings.Cut(err.Error(), ":")
	return kind
}

// TestGoldenAnswers pins what the system answers: every sentence of
// answerSentences on every instance of answerInstances, under direct, auto
// (with the strategy it resolved to, which must be core's), the fixpoint
// and linearized strategies where auto resolves to fixpoint, and fo on
// single-region schemas for sentences of depth at most 2.  It also pins the
// engine's counters per instance, and re-asks every auto sentence to check
// that the repeat is an answer-cache hit under the same strategy.
// Regenerate with -update; a change that moves a row lists it in CHANGES.md.
func TestGoldenAnswers(t *testing.T) {
	var rows []answerRow
	var counters []counterRow
	for _, ai := range answerInstances() {
		inst, err := ai.mk()
		if err != nil {
			t.Fatalf("%s: %v", ai.name, err)
		}
		db, err := core.Open(inst)
		if err != nil {
			t.Fatal(err)
		}
		resolved := db.Resolve(core.Auto)
		names := inst.Schema().Names()
		slices.Sort(names)
		e := New()
		ask := func(q pointfo.PointFormula, s core.Strategy) Result {
			return e.Do(Request{Instance: inst, Query: q, Strategy: s, StrategySet: true}, core.Direct)
		}
		var populated []string
		for _, p := range names {
			if ok, err := db.Ask(pointfo.PExists{Vars: []string{"u"}, Body: pointfo.In{Region: p, Var: "u"}}, core.Direct); err == nil && ok {
				populated = append(populated, p)
			}
		}
		seen := map[string]bool{}
		for _, src := range answerSentences(names, populated) {
			parsed, err := queryl.Parse(src)
			if err != nil {
				t.Fatalf("%s: parse %q: %v", ai.name, src, err)
			}
			if seen[parsed.Canonical] {
				continue
			}
			seen[parsed.Canonical] = true
			q := parsed.Formula
			strategies := []core.Strategy{core.Direct, core.Auto}
			if resolved == core.ViaInvariantFixpoint {
				strategies = append(strategies, core.ViaInvariantFixpoint, core.ViaLinearized)
			}
			if len(names) == 1 && pointfo.QuantifierDepth(q) <= 2 {
				strategies = append(strategies, core.ViaInvariantFO)
			}
			for _, s := range strategies {
				res := ask(q, s)
				row := answerRow{Instance: ai.name, Query: parsed.Canonical, Strategy: s.String()}
				if s == core.Auto {
					row.Resolved = res.Strategy.String()
					if res.Strategy != resolved {
						t.Errorf("%s: auto resolved to %v in the engine, %v in core", ai.name, res.Strategy, resolved)
					}
					again := ask(q, s)
					if !again.AnswerHit && res.Err == nil || again.Strategy != res.Strategy || again.Answer != res.Answer {
						t.Errorf("%s %q: auto repeat = (%v, %v, hit %v), want (%v, %v) from the answer cache",
							ai.name, parsed.Canonical, again.Strategy, again.Answer, again.AnswerHit, res.Strategy, res.Answer)
					}
				}
				if res.Err != nil {
					row.Err = errKind(res.Err)
				} else {
					row.Answer = &res.Answer
				}
				rows = append(rows, row)
			}
		}
		st := e.Stats()
		c := counterRow{Instance: ai.name, AutoQueries: st.AutoQueries, AutoFallbacks: st.AutoFallbacks,
			AnswerHits: st.AnswerHits, AnswerMisses: st.AnswerMisses, Computes: st.Computes,
			Queries: map[string]uint64{}, Errors: map[string]uint64{}}
		for _, ss := range st.Strategies {
			c.Queries[ss.Strategy] = ss.Queries
			c.Errors[ss.Strategy] = ss.Errors
		}
		counters = append(counters, c)
	}

	var buf bytes.Buffer
	writeLines(t, &buf, "answers", rows, ",\n")
	writeLines(t, &buf, "counters", counters, "\n}\n")
	got := buf.Bytes()
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenAnswers), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenAnswers, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenAnswers)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	diffs := 0
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			if diffs++; diffs <= 10 {
				t.Errorf("%s line %d:\n got %s\nwant %s", goldenAnswers, i+1, g, w)
			}
		}
	}
	if diffs > 10 {
		t.Errorf("%d lines differ in all", diffs)
	}
}

// writeLines writes one JSON object member holding rows as an array, one
// compact row per line, so a changed answer is a one-line diff.
func writeLines[T any](t *testing.T, buf *bytes.Buffer, key string, rows []T, tail string) {
	t.Helper()
	if buf.Len() == 0 {
		buf.WriteString("{\n")
	}
	fmt.Fprintf(buf, "%q: [\n", key)
	for i, r := range rows {
		var line bytes.Buffer
		enc := json.NewEncoder(&line)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
		buf.Write(bytes.TrimSuffix(line.Bytes(), []byte("\n")))
		if i < len(rows)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("]" + tail)
}
