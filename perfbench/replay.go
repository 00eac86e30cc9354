package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"time"

	"repro/internal/arrangement"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geojson"
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/pointfo"
	"repro/internal/queryl"
	"repro/internal/simindex"
	"repro/internal/spatial"
	"repro/internal/store"
	"repro/internal/translate"
)

// The traced replay re-runs a workload's op sequence in this process,
// calling the layers' public functions in the order the server's handlers
// and engine call them, and records a span around each call. Each op runs
// three ways, each on its own copy of the state the measured phase started
// from, in blocks of consecutive ops whose mode order rotates from block to
// block so drift and warm caches favour none of them:
//
//   - traced: spans on; gives each layer's self time per op;
//   - plain: the same calls with the recorder off; the median per-op ratio
//     of traced to plain time is trace.overhead_pct;
//   - engine: the op through engine.Engine, untraced; the median per-op
//     ratio of the traced stage self-times to this time is trace.coverage.
//
// The layer counters the traced blocks move in this process's obs registry
// must equal the server's /metrics deltas over the measured phase: a replay
// that calls a layer more or less often than the server does is reported
// as a mismatch.

// replaySeconds bounds the replay to the ops of the first replaySeconds
// nominal seconds, so a traced run stays short whatever --seconds is.
const replaySeconds = 4

// replayBlocks is how many blocks the op sequence is cut into for the
// rotation; the registry is read around each traced block.
const replayBlocks = 200

// coverageRange is the tolerance trace.coverage must land in: the stages
// account for the engine's op time to within 15%.
var coverageRange = [2]float64{0.85, 1.15}

// comparedCounters are the layer counters the replay must reproduce
// exactly against the server's deltas.
var comparedCounters = []string{
	"topoinv_arrangement_build_seconds_count",
	"topoinv_sweep_events_total",
	"topoinv_store_bytes_written_total",
	"topoinv_store_bytes_read_total",
	"topoinv_simindex_query_seconds_count",
	"topoinv_pointfo_compile_fallbacks_total",
	"topoinv_pointfo_quantifier_plans_total",
}

// stageMetrics maps each traced stage to its per-layer metric: mean self
// time per op, in the given unit.
var stageMetrics = []struct {
	stage, metric, unit string
}{
	{"queryl.parse", "queryl.parse_us", "us"},
	{"queryl.format", "queryl.format_us", "us"},
	{"engine.cached_ask", "engine.cached_ask_us", "us"},
	{"core.open", "core.open_ms", "ms"},
	{"pointfo.eval", "pointfo.eval_us", "us"},
	{"geojson.import", "geojson.import_ms", "ms"},
	{"codec.instance_key", "codec.instance_key_ms", "ms"},
	{"arrangement.build", "arrangement.build_ms", "ms"},
	{"invariant.from_complex", "invariant.from_complex_us", "us"},
	{"pointfo.compile", "pointfo.compile_ms", "ms"},
	{"simindex.make_entry", "simindex.make_entry_ms", "ms"},
	{"codec.encode_invariant", "codec.encode_invariant_us", "us"},
	{"store.put", "store.put_us", "us"},
	{"store.get", "store.get_us", "us"},
	{"codec.decode_invariant", "codec.decode_invariant_us", "us"},
	{"translate.fixpoint", "translate.fixpoint_ms", "ms"},
	{"simindex.query", "simindex.query_us", "us"},
}

// --- span recorder -------------------------------------------------------------

// span is one recorded call. parent indexes the enclosing span (-1 at the
// top of an op); a probe re-times a call the engine makes internally and
// is left out of the coverage sum.
type span struct {
	name       string
	op, parent int
	start, end time.Duration
	probe      bool
}

// recorder keeps spans in memory for one single-goroutine pass. With on ==
// false, call only runs f.
type recorder struct {
	on    bool
	base  time.Time
	op    int
	spans []span
	stack []int
}

func (r *recorder) call(name string, f func() error) error {
	return r.record(name, false, f)
}

func (r *recorder) probe(name string, f func() error) error {
	return r.record(name, true, f)
}

func (r *recorder) record(name string, probe bool, f func() error) error {
	if !r.on {
		return f()
	}
	parent := -1
	if len(r.stack) > 0 {
		parent = r.stack[len(r.stack)-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{name: name, op: r.op, parent: parent, start: time.Since(r.base), probe: probe})
	r.stack = append(r.stack, id)
	err := f()
	r.spans[id].end = time.Since(r.base)
	r.stack = r.stack[:len(r.stack)-1]
	return err
}

// writeSpans records every traced span, with its self time, once the
// replay is over.
func writeSpans(path string, spans []span, self []time.Duration) error {
	var b strings.Builder
	b.WriteString("span\top\tname\tparent\tstart_us\tend_us\tself_us\tprobe\n")
	for i, s := range spans {
		fmt.Fprintf(&b, "%d\t%d\t%s\t%d\t%.3f\t%.3f\t%.3f\t%v\n", i, s.op, s.name, s.parent,
			float64(s.start)/1e3, float64(s.end)/1e3, float64(self[i])/1e3, s.probe)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// selfTimes returns each span's duration minus the time its children cover.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// --- replay models -------------------------------------------------------------

// model is one workload's replay. prepare and prepareEngine bring fresh
// state to where the measured phase started, for op (op i decomposed into
// traced calls) and engineOp (op i through engine.Engine) respectively;
// close releases whatever either opened.
type model struct {
	prepare, prepareEngine func() error
	op                     func(r *recorder, i int) error
	engineOp               func(i int) error
	close                  func()
	loadTime               time.Duration // reopen: SIMINDEX.bin LoadFile in prepare
}

// buildQuery mirrors the serve handler: alias expansion or formula, parse,
// schema check, served depth cap.
func buildQuery(a askItem) (pointfo.PointFormula, error) {
	src, err := a.source()
	if err != nil {
		return nil, err
	}
	q, err := queryl.Parse(src)
	if err != nil {
		return nil, err
	}
	if err := q.CheckSchema(a.inst.Schema()); err != nil {
		return nil, err
	}
	if d := pointfo.QuantifierDepth(q.Formula); d > 6 {
		return nil, fmt.Errorf("quantifier depth %d over the served cap", d)
	}
	return q.Formula, nil
}

func autoAsk(e *engine.Engine, inst *spatial.Instance, q pointfo.PointFormula) engine.Result {
	return e.Do(engine.Request{Instance: inst, Query: q, Strategy: core.Auto, StrategySet: true}, core.Auto)
}

// engineAsk runs one ask through an engine and checks its answer.
func engineAsk(e *engine.Engine, a askItem) error {
	q, err := buildQuery(a)
	if err != nil {
		return err
	}
	res := autoAsk(e, a.inst, q)
	if res.Err != nil {
		return res.Err
	}
	if res.Answer != a.want {
		return fmt.Errorf("engine answered %v, want %v", res.Answer, a.want)
	}
	return nil
}

// answerErr reports a replayed answer that differs from the expected one.
func answerErr(got, want bool) error {
	if got != want {
		return fmt.Errorf("answer %v, want %v", got, want)
	}
	return nil
}

// newModel builds the replay of p's workload over state kept in dir.
// storeDir is the server's store after the measured phase; reopen replays
// over a private copy of it.
func newModel(p *plan, refs *references, storeDir, dir string) (*model, error) {
	switch p.workload {
	case "ask-repeat":
		return askRepeatModel(p), nil
	case "ask-fresh":
		return askFreshModel(p), nil
	case "ingest":
		return ingestModel(p, dir), nil
	}
	copyDir := filepath.Join(dir, "store")
	if err := copyTree(storeDir, copyDir); err != nil {
		return nil, err
	}
	return reopenModel(p, refs, copyDir), nil
}

func askRepeatModel(p *plan) *model {
	var eng *engine.Engine
	m := &model{close: func() {}}
	m.prepare = func() error {
		eng = engine.New()
		for _, a := range p.pool {
			if err := engineAsk(eng, a); err != nil {
				return err
			}
		}
		return nil
	}
	m.prepareEngine = m.prepare
	m.op = func(r *recorder, i int) error {
		a := p.pool[p.seq[i]]
		var q pointfo.PointFormula
		if err := r.call("queryl.parse", func() (err error) { q, err = buildQuery(a); return }); err != nil {
			return err
		}
		if err := r.call("engine.cached_ask", func() error {
			res := autoAsk(eng, a.inst, q)
			if res.Err != nil || !res.AnswerHit {
				return fmt.Errorf("cached ask (answer hit %v): %w", res.AnswerHit, res.Err)
			}
			return answerErr(res.Answer, a.want)
		}); err != nil {
			return err
		}
		// engine.Do formats the query for its answer key; re-time that call.
		return r.probe("queryl.format", func() error { queryl.Format(q); return nil })
	}
	m.engineOp = func(i int) error { return engineAsk(eng, p.pool[p.seq[i]]) }
	return m
}

func askFreshModel(p *plan) *model {
	inst := p.corpus[0].inst
	var inv *invariant.Invariant
	var ce *pointfo.CompiledEvaluator
	var eng *engine.Engine
	m := &model{close: func() {}}
	m.prepare = func() (err error) {
		if inv, err = invariant.Compute(inst); err != nil {
			return err
		}
		ce, err = pointfo.CompileEvaluator(inst)
		return err
	}
	m.prepareEngine = func() error {
		eng = engine.New()
		return engineAsk(eng, p.prime[0])
	}
	m.op = func(r *recorder, i int) error {
		a := p.asks[i]
		var q pointfo.PointFormula
		if err := r.call("queryl.parse", func() (err error) { q, err = buildQuery(a); return }); err != nil {
			return err
		}
		r.call("queryl.format", func() error { queryl.Format(q); return nil })
		// Auto resolution finds the cached invariant outside the invertible
		// class and falls back to Direct.
		var invertible bool
		r.call("translate.can_invert", func() error { invertible = translate.CanInvert(inv); return nil })
		if invertible {
			return fmt.Errorf("land-use invariant is invertible")
		}
		if err := r.call("core.open", func() error { _, err := core.Open(inst); return err }); err != nil {
			return err
		}
		return r.call("pointfo.eval", func() error {
			ok, err := pointfo.EvalSentence(inst, ce, q)
			if err != nil {
				return err
			}
			return answerErr(ok, a.want)
		})
	}
	m.engineOp = func(i int) error { return engineAsk(eng, p.asks[i]) }
	return m
}

func ingestModel(p *plan, dir string) *model {
	var st *store.Store
	var idx *simindex.Index
	var eng *engine.Engine
	m := &model{}
	m.prepare = func() (err error) {
		if st, err = store.Open(filepath.Join(dir, "store")); err != nil {
			return err
		}
		idx = simindex.New()
		for _, d := range p.corpus {
			inv, err := invariant.Compute(d.inst)
			if err != nil {
				return err
			}
			data, err := codec.EncodeInvariant(inv)
			if err != nil {
				return err
			}
			if err := st.Put(d.id, data); err != nil {
				return err
			}
			idx.Add(simindex.MakeEntry(d.id, inv))
		}
		return nil
	}
	m.prepareEngine = func() error {
		eng = engine.New(engine.WithStore(filepath.Join(dir, "store")))
		if err := eng.StoreErr(); err != nil {
			return err
		}
		for _, a := range p.prime {
			if err := engineAsk(eng, a); err != nil {
				return err
			}
		}
		return nil
	}
	m.op = func(r *recorder, i int) error {
		o := p.maps[i]
		var inst *spatial.Instance
		var id string
		instanceKey := func() error {
			return r.call("codec.instance_key", func() (err error) { id, err = engine.InstanceKey(inst); return })
		}
		// POST /v1/instances: import, then the handler's content key.
		if err := r.call("geojson.import", func() (err error) { inst, err = geojson.Import(o.doc.text); return }); err != nil {
			return err
		}
		if err := instanceKey(); err != nil {
			return err
		}
		if id != o.doc.id {
			return fmt.Errorf("replayed id %s, want %s", id, o.doc.id)
		}
		// POST /v1/ask with auto: the engine keys the new instance, misses
		// memory and store, computes and persists the invariant, indexes
		// it, falls back to Direct and compiles an evaluator.
		a := o.ask
		a.inst = inst
		var q pointfo.PointFormula
		if err := r.call("queryl.parse", func() (err error) { q, err = buildQuery(a); return }); err != nil {
			return err
		}
		if err := instanceKey(); err != nil {
			return err
		}
		r.call("queryl.format", func() error { queryl.Format(q); return nil })
		if err := r.call("store.get", func() error {
			_, ok, err := st.Get(id)
			if err != nil {
				return err
			}
			if ok {
				return fmt.Errorf("the store already holds new map %s", id)
			}
			return nil
		}); err != nil {
			return err
		}
		var cx *arrangement.Complex
		if err := r.call("arrangement.build", func() (err error) { cx, err = arrangement.Build(inst); return }); err != nil {
			return err
		}
		var inv *invariant.Invariant
		r.call("invariant.from_complex", func() error { inv = invariant.FromComplex(cx); return nil })
		var data []byte
		if err := r.call("codec.encode_invariant", func() (err error) { data, err = codec.EncodeInvariant(inv); return }); err != nil {
			return err
		}
		if err := r.call("store.put", func() error { return st.Put(id, data) }); err != nil {
			return err
		}
		var ent *simindex.Entry
		r.call("simindex.make_entry", func() error { ent = simindex.MakeEntry(id, inv); return nil })
		r.call("simindex.add", func() error { idx.Add(ent); return nil })
		var invertible bool
		r.call("translate.can_invert", func() error { invertible = translate.CanInvert(inv); return nil })
		if invertible {
			return fmt.Errorf("%s invariant is invertible", id)
		}
		if err := r.call("core.open", func() error { _, err := core.Open(inst); return err }); err != nil {
			return err
		}
		var ce *pointfo.CompiledEvaluator
		if err := r.call("pointfo.compile", func() error {
			var cx2 *arrangement.Complex
			if err := r.call("arrangement.build", func() (err error) { cx2, err = arrangement.Build(inst); return }); err != nil {
				return err
			}
			ce = pointfo.CompileFromSample(pointfo.SampleFromComplex(cx2))
			return nil
		}); err != nil {
			return err
		}
		if err := r.call("pointfo.eval", func() error {
			ok, err := pointfo.EvalSentence(inst, ce, q)
			if err != nil {
				return err
			}
			return answerErr(ok, a.want)
		}); err != nil {
			return err
		}
		// GET /v1/instances/{id}/similar: the invariant and key are cached,
		// the index answers, and the handler keys the instance again.
		if err := r.call("simindex.query", func() error {
			probe, ok := idx.Get(id)
			if !ok {
				return fmt.Errorf("%s not indexed", id)
			}
			if n := len(idx.Query(&probe, similarK)); n != similarK {
				return fmt.Errorf("%d matches, want %d", n, similarK)
			}
			return nil
		}); err != nil {
			return err
		}
		return instanceKey()
	}
	m.engineOp = func(i int) error {
		o := p.maps[i]
		inst, err := geojson.Import(o.doc.text)
		if err != nil {
			return err
		}
		if _, err := engine.InstanceKey(inst); err != nil {
			return err
		}
		a := o.ask
		a.inst = inst
		if err := engineAsk(eng, a); err != nil {
			return err
		}
		ms, err := eng.Similar(inst, similarK)
		if err != nil {
			return err
		}
		if _, err := engine.InstanceKey(inst); err != nil {
			return err
		}
		eng.SimEntry(inst)
		if len(ms) != similarK {
			return fmt.Errorf("%d matches, want %d", len(ms), similarK)
		}
		return nil
	}
	m.close = func() {
		if st != nil {
			st.Close()
		}
		if eng != nil {
			eng.Close()
		}
	}
	return m
}

// keyMemo mirrors the engine's per-pointer content-address memo, which it
// drops whole once it holds four cache capacities of entries.
type keyMemo struct {
	r *recorder
	m map[*spatial.Instance]string
}

func (k *keyMemo) key(inst *spatial.Instance) (string, error) {
	if id, ok := k.m[inst]; ok {
		return id, nil
	}
	var id string
	err := k.r.call("codec.instance_key", func() (err error) { id, err = engine.InstanceKey(inst); return })
	if err != nil {
		return "", err
	}
	if len(k.m) >= 4*invariantCache {
		k.m = map[*spatial.Instance]string{}
	}
	k.m[inst] = id
	return id, nil
}

func reopenModel(p *plan, refs *references, storeDir string) *model {
	var st *store.Store
	var idx *simindex.Index
	var eng *engine.Engine
	memo := &keyMemo{r: &recorder{}, m: map[*spatial.Instance]string{}}
	evals := map[string]*pointfo.CompiledEvaluator{}
	m := &model{}
	// fixpoint answers the ask as db.Ask(q, ViaInvariantFixpoint) does:
	// realise the invariant as a linear instance and evaluate there, with
	// the evaluator from the engine's cache.
	fixpoint := func(r *recorder, inst *spatial.Instance, inv *invariant.Invariant, q pointfo.PointFormula) (bool, error) {
		var ok bool
		err := r.call("translate.fixpoint", func() (err error) {
			fq := translate.ToFixpointQuery(q, inst.AllConnected())
			ok, err = fq.EvaluateOnInvariantUsing(inv, func(j *spatial.Instance, q pointfo.PointFormula) (bool, error) {
				k, err := memo.key(j)
				if err != nil {
					return false, err
				}
				ce := evals[k]
				if ce == nil {
					if ce, err = pointfo.CompileEvaluator(j); err != nil {
						return false, err
					}
					evals[k] = ce
				}
				var ans bool
				err = r.call("pointfo.eval", func() (err error) { ans, err = pointfo.EvalSentence(j, ce, q); return })
				return ans, err
			})
			return err
		})
		return ok, err
	}
	fetch := func(r *recorder, id string) (*invariant.Invariant, error) {
		var data []byte
		if err := r.call("store.get", func() error {
			var ok bool
			var err error
			if data, ok, err = st.Get(id); err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("the store lacks %s", id)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		var inv *invariant.Invariant
		err := r.call("codec.decode_invariant", func() (err error) { inv, err = codec.DecodeInvariant(data); return })
		return inv, err
	}
	m.prepare = func() (err error) {
		if st, err = store.Open(storeDir); err != nil {
			return err
		}
		idx = simindex.New()
		start := time.Now()
		if _, err := idx.LoadFile(simindex.IndexFilePath(storeDir)); err != nil {
			return err
		}
		m.loadTime = time.Since(start)
		idx.Rebuild()
		for _, a := range p.warm {
			q, err := buildQuery(a)
			if err != nil {
				return err
			}
			inv, err := fetch(memo.r, a.id)
			if err != nil {
				return err
			}
			if _, err := memo.key(a.inst); err != nil {
				return err
			}
			if _, err := fixpoint(memo.r, a.inst, inv, q); err != nil {
				return err
			}
		}
		return nil
	}
	m.prepareEngine = func() error {
		eng = engine.New(engine.WithStore(storeDir))
		if err := eng.StoreErr(); err != nil {
			return err
		}
		for _, a := range p.warm {
			if err := engineAsk(eng, a); err != nil {
				return err
			}
		}
		return nil
	}
	m.op = func(r *recorder, i int) error {
		d := p.corpus[p.cycle[i]]
		memo.r = r
		// GET /v1/instances/{id}/similar: the invariant comes from the
		// store (the cycle outruns the memory cache), then the index.
		if _, err := memo.key(d.inst); err != nil {
			return err
		}
		inv, err := fetch(r, d.id)
		if err != nil {
			return err
		}
		idx.Has(d.id)
		if err := r.call("simindex.query", func() error {
			probe, ok := idx.Get(d.id)
			if !ok {
				return fmt.Errorf("%s not indexed", d.id)
			}
			if got, w := idx.Query(&probe, similarK), refs.get(d.id); !reflect.DeepEqual(got, w) {
				return fmt.Errorf("replayed matches %v, want %v", got, w)
			}
			return nil
		}); err != nil {
			return err
		}
		if err := r.call("codec.instance_key", func() error { _, err := engine.InstanceKey(d.inst); return err }); err != nil {
			return err
		}
		// POST /v1/ask with auto: the invariant is now cached and
		// invertible, so the fixpoint strategy answers.
		a := p.asks[i]
		var q pointfo.PointFormula
		if err := r.call("queryl.parse", func() (err error) { q, err = buildQuery(a); return }); err != nil {
			return err
		}
		r.call("queryl.format", func() error { queryl.Format(q); return nil })
		var invertible bool
		r.call("translate.can_invert", func() error { invertible = translate.CanInvert(inv); return nil })
		if !invertible {
			return fmt.Errorf("%s invariant is not invertible", d.id)
		}
		if err := r.call("core.open", func() error { _, err := core.OpenWith(d.inst, inv); return err }); err != nil {
			return err
		}
		ok, err := fixpoint(r, d.inst, inv, q)
		if err != nil {
			return err
		}
		return answerErr(ok, a.want)
	}
	m.engineOp = func(i int) error {
		d := p.corpus[p.cycle[i]]
		ms, err := eng.Similar(d.inst, similarK)
		if err != nil {
			return err
		}
		if _, err := engine.InstanceKey(d.inst); err != nil {
			return err
		}
		eng.SimEntry(d.inst)
		if w := refs.get(d.id); !reflect.DeepEqual(ms, w) {
			return fmt.Errorf("engine matches %v, want %v", ms, w)
		}
		return engineAsk(eng, p.asks[i])
	}
	m.close = func() {
		if st != nil {
			st.Close()
		}
		if eng != nil {
			eng.Close()
		}
	}
	return m
}

// copyTree copies the regular files under src into dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// --- replay passes -------------------------------------------------------------

// registryCounts reads this process's own obs registry.
func registryCounts() metrics {
	var b strings.Builder
	obs.Default.WritePrometheus(&b)
	return parseMetrics([]byte(b.String()))
}

type replayResult struct {
	metrics  map[string]metric
	problems []string
}

func medianRatio(num, den []time.Duration) float64 {
	r := make([]float64, len(num))
	for i := range num {
		r[i] = float64(num[i]) / float64(den[i])
	}
	sort.Float64s(r)
	if len(r)%2 == 1 {
		return r[len(r)/2]
	}
	return (r[len(r)/2-1] + r[len(r)/2]) / 2
}

// replay runs the first m.split ops of the plan traced, plain and through
// the engine, and derives the trace metrics; m is the server's measured
// phase, whose counter deltas over those ops the traced ops must reproduce.
func replay(p *plan, refs *references, m *measurement, storeDir, dir string) (*replayResult, error) {
	n := m.split
	var models [3]*model // traced, plain, engine
	for k := range models {
		md, err := newModel(p, refs, storeDir, filepath.Join(dir, fmt.Sprint("replay", k)))
		if err != nil {
			return nil, err
		}
		defer md.close()
		prepare := md.prepare
		if k == 2 {
			prepare = md.prepareEngine
		}
		if err := prepare(); err != nil {
			return nil, fmt.Errorf("replay set-up: %w", err)
		}
		models[k] = md
	}
	rec := &recorder{on: true, base: time.Now(), spans: make([]span, 0, 8*n)}
	off := &recorder{}
	var times [3][]time.Duration
	for k := range times {
		times[k] = make([]time.Duration, n)
	}
	run := [3]func(i int) error{
		func(i int) error { rec.op = i; return models[0].op(rec, i) },
		func(i int) error { return models[1].op(off, i) },
		models[2].engineOp,
	}
	counts := map[string]float64{}
	block := (n + replayBlocks - 1) / replayBlocks
	for b0 := 0; b0 < n; b0 += block {
		b1 := min(b0+block, n)
		for j := 0; j < 3; j++ {
			k := (b0/block + j) % 3
			var before metrics
			if k == 0 {
				before = registryCounts()
			}
			for i := b0; i < b1; i++ {
				start := time.Now()
				if err := run[k](i); err != nil {
					return nil, fmt.Errorf("op %d (%s): %w", i, [3]string{"traced", "plain", "engine"}[k], err)
				}
				times[k][i] = time.Since(start)
			}
			if k == 0 {
				after := registryCounts()
				for _, c := range comparedCounters {
					counts[c] += delta(before, after, c)
				}
			}
		}
	}

	res := &replayResult{metrics: map[string]metric{}}
	self := selfTimes(rec.spans)
	if err := writeSpans(filepath.Join(dir, "spans.tsv"), rec.spans, self); err != nil {
		return nil, err
	}
	total := map[string]time.Duration{}
	calls := map[string]int{}
	staged := make([]time.Duration, n)
	for i, s := range rec.spans {
		total[s.name] += self[i]
		calls[s.name]++
		if !s.probe {
			staged[s.op] += self[i]
		}
	}
	perOp := func(d time.Duration, unit string) float64 {
		scale := float64(time.Millisecond)
		if unit == "us" {
			scale = float64(time.Microsecond)
		}
		return float64(d) / scale / float64(n)
	}
	for _, sm := range stageMetrics {
		res.metrics[sm.metric] = metric{perOp(total[sm.stage], sm.unit), sm.unit, calls[sm.stage]}
	}
	res.metrics["codec.instance_keys_per_op"] = metric{float64(calls["codec.instance_key"]) / float64(n), "count", n}
	res.metrics["simindex.load_ms"] = metric{ms(models[0].loadTime), "ms", 1}
	coverage := medianRatio(staged, times[2])
	res.metrics["trace.coverage"] = metric{coverage, "ratio", n}
	res.metrics["trace.overhead_pct"] = metric{100 * (medianRatio(times[0], times[1]) - 1), "%", n}
	if coverage < coverageRange[0] || coverage > coverageRange[1] {
		res.problems = append(res.problems, fmt.Sprintf("trace.coverage %.3f outside [%.2f, %.2f]", coverage, coverageRange[0], coverageRange[1]))
	}
	mismatches := 0
	for _, c := range comparedCounters {
		if got, want := counts[c], delta(m.before, m.mid, c); got != want {
			mismatches++
			res.problems = append(res.problems, fmt.Sprintf("replay %s = %v per op, server %v per op", c, got/float64(n), want/float64(n)))
		}
	}
	res.metrics["trace.count_mismatches"] = metric{float64(mismatches), "count", len(comparedCounters)}
	return res, nil
}
