package main

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strings"

	"repro/internal/codec"
	"repro/internal/engine"
	"repro/internal/geojson"
	"repro/internal/queryl"
	"repro/internal/rat"
	"repro/internal/spatial"
	"repro/internal/workload"
)

// Workload names, in the order BENCHMARK.json lists them.
var workloads = []string{"ask-repeat", "ask-fresh", "ingest", "reopen"}

// Nominal op rates: a run executes rate × --seconds ops, so every run of a
// workload does identical work and lasts about --seconds on a 2-vCPU host.
var opsPerSecond = map[string]int{
	"ask-repeat": 12000,
	"ask-fresh":  300,
	"ingest":     16,
	"reopen":     2200,
}

// Sizes that define the workloads.
const (
	// invariantCache is the server's default invariant (and evaluator) cache
	// capacity; reopen stores reopenFactor times as many instances so every
	// op misses memory and reads the store.
	invariantCache = engine.DefaultCacheCapacity
	reopenFactor   = 4
	// similarK is the k of every similarity query.
	similarK = 5
	// ingestBase is the number of maps ingest posts in set-up, so the first
	// measured similarity query already has similarK neighbours.
	ingestBase = 6
)

// doc is one instance document posted to POST /v1/instances.
type doc struct {
	inst  *spatial.Instance
	id    string // content address the server must return
	body  []byte // marshalled request body
	text  []byte // GeoJSON text (nil for an encoded blob)
	bytes int    // instance document size: GeoJSON text or encoded blob
}

// askItem is one question about one instance, sent as a legacy alias or as a
// formula, always with strategy auto.
type askItem struct {
	inst    *spatial.Instance
	id      string
	alias   string
	regions []string
	formula string
	want    bool   // the answer core.Open(inst).Ask(q, Direct) gives
	label   string // cost class, recorded with the op's latency
}

func (a askItem) body() []byte {
	m := map[string]any{"id": a.id, "strategy": "auto"}
	if a.alias != "" {
		m["query"], m["regions"] = a.alias, a.regions
	} else {
		m["formula"] = a.formula
	}
	b, err := json.Marshal(m)
	if err != nil {
		panic(err) // strings and string slices always marshal
	}
	return b
}

// source is the sentence text the server parses: the alias expansion or
// the formula.
func (a askItem) source() (string, error) {
	if a.alias != "" {
		return queryl.Alias(a.alias, a.regions...)
	}
	return a.formula, nil
}

// plan is everything one run sends and expects, generated from the seed
// before the server is spawned.
type plan struct {
	workload string
	corpus   []doc     // posted in set-up, in order
	prime    []askItem // asked once in set-up, after the corpus

	pool []askItem // ask-repeat: the distinct questions; seq indexes it
	seq  []int

	asks []askItem // ask-fresh and reopen: one per op

	maps []ingestOp // ingest: one per op

	restart bool      // reopen: restart on the same store, then re-post
	cycle   []int     // reopen: op i asks about corpus[cycle[i]]
	warm    []askItem // reopen: asked after the restart, before the clock
}

// ingestOp is one ingest op: post a never-seen map, ask it, fetch its
// neighbours.
type ingestOp struct {
	doc doc
	ask askItem
}

// numOps is the fixed op count of a run.
func numOps(name string, seconds int) int {
	return opsPerSecond[name] * seconds
}

func newPlan(name string, seed int64, seconds int) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	n := numOps(name, seconds)
	switch name {
	case "ask-repeat":
		return planAskRepeat(rng, n)
	case "ask-fresh":
		return planAskFresh(rng, n)
	case "ingest":
		return planIngest(rng, n)
	case "reopen":
		return planReopen(rng, n)
	}
	return nil, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(workloads, " | "))
}

// --- instance documents ------------------------------------------------------

func blobDoc(inst *spatial.Instance) (doc, error) {
	blob, err := codec.EncodeInstance(inst)
	if err != nil {
		return doc{}, err
	}
	id, err := engine.InstanceKey(inst)
	if err != nil {
		return doc{}, err
	}
	body, err := json.Marshal(map[string]string{"data": base64.StdEncoding.EncodeToString(blob)})
	if err != nil {
		return doc{}, err
	}
	return doc{inst: inst, id: id, body: body, bytes: len(blob)}, nil
}

// geoDoc encodes the instance as GeoJSON and imports that text the way the
// server will, so the doc carries the instance and id the server must
// produce.
func geoDoc(src *spatial.Instance) (doc, error) {
	text := encodeGeoJSON(src)
	inst, err := geojson.Import(text)
	if err != nil {
		return doc{}, fmt.Errorf("importing generated GeoJSON: %w", err)
	}
	id, err := engine.InstanceKey(inst)
	if err != nil {
		return doc{}, err
	}
	body, err := json.Marshal(map[string]json.RawMessage{"geojson": text})
	if err != nil {
		return doc{}, err
	}
	return doc{inst: inst, id: id, body: body, text: text, bytes: len(text)}, nil
}

// The cartographic maps at scale 1, with a seed of their own.
func landUse(seed int64) (*spatial.Instance, error) {
	p := workload.DefaultLandUse(1)
	p.Seed = seed
	return workload.LandUse(p)
}

func commune(seed int64) (*spatial.Instance, error) {
	p := workload.DefaultCommune(1)
	p.Seed = seed
	return workload.Commune(p)
}

func hydrography(seed int64) (*spatial.Instance, error) {
	p := workload.DefaultHydrography(1)
	p.Seed = seed
	return workload.Hydrography(p)
}

// translated returns a single-region shape moved by (dx, dy): same
// invariant, new content address.
func translated(shape *spatial.Instance, dx, dy int64) (*spatial.Instance, error) {
	out := spatial.NewInstance(shape.Schema())
	for _, name := range shape.Schema().Names() {
		if err := out.Set(name, shape.Region(name).Translate(rat.FromInt(dx), rat.FromInt(dy))); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// aliasAsks expands every legacy alias over an instance's sorted region
// names, pairing each name with the next one; kind labels the map.
func aliasAsks(d doc, kind string) []askItem {
	names := d.inst.SortedNames()
	var out []askItem
	for _, alias := range queryl.AliasNames {
		for i := range names {
			regions := make([]string, queryl.AliasArity(alias))
			for j := range regions {
				regions[j] = names[(i+j)%len(names)]
			}
			out = append(out, askItem{inst: d.inst, id: d.id, alias: alias, regions: regions, label: kind + "/" + alias})
		}
	}
	return out
}

// --- ask-repeat --------------------------------------------------------------

// planAskRepeat: a mixed corpus of land-use, commune, hydrography and nested
// maps, every legacy alias over each asked once in set-up, then n re-asks
// drawn from those questions. Every op is an answer-cache hit.
func planAskRepeat(rng *rand.Rand, n int) (*plan, error) {
	p := &plan{workload: "ask-repeat"}
	type labelled struct {
		kind string
		inst *spatial.Instance
	}
	var insts []labelled
	// The corpus is fixed (the cached answers' cost does not depend on the
	// maps); the seed picks the re-asked questions.
	for _, gen := range []struct {
		kind  string
		seeds []int64
		make  func(int64) (*spatial.Instance, error)
	}{{"landuse", []int64{1, 2, 3}, landUse}, {"commune", []int64{3, 4}, commune}, {"hydrography", []int64{7, 8}, hydrography}} {
		for _, seed := range gen.seeds {
			inst, err := gen.make(seed)
			if err != nil {
				return nil, err
			}
			insts = append(insts, labelled{gen.kind, inst})
		}
	}
	for levels := 2; levels <= 3; levels++ {
		shape, err := workload.NestedRegions(levels)
		if err != nil {
			return nil, err
		}
		inst, err := translated(shape, int64(100*levels), int64(200*levels))
		if err != nil {
			return nil, err
		}
		insts = append(insts, labelled{"nested", inst})
	}
	for _, l := range insts {
		d, err := blobDoc(l.inst)
		if err != nil {
			return nil, err
		}
		p.corpus = append(p.corpus, d)
		p.pool = append(p.pool, aliasAsks(d, l.kind)...)
	}
	p.prime = p.pool
	p.seq = make([]int, n)
	for i := range p.seq {
		p.seq[i] = rng.Intn(len(p.pool))
	}
	return p, nil
}

// --- ask-fresh ---------------------------------------------------------------

// freshTemplates are depth-3/4 sentences over two region names (%[1]s, %[2]s);
// %[3]s suffixes every variable so each op's canonical text is new.
var freshTemplates = []string{
	`exists u%[3]s . exists v%[3]s . exists w%[3]s . interior(%[1]s, u%[3]s) and in(%[2]s, v%[3]s) and in(%[2]s, w%[3]s) and v%[3]s <x u%[3]s and u%[3]s <x w%[3]s`,
	`forall u%[3]s . (in(%[1]s, u%[3]s) and not interior(%[1]s, u%[3]s)) implies (exists v%[3]s . exists w%[3]s . in(%[2]s, v%[3]s) and in(%[2]s, w%[3]s) and v%[3]s <y u%[3]s and u%[3]s <x w%[3]s)`,
	`exists u%[3]s . exists v%[3]s . forall w%[3]s . exists z%[3]s . (in(%[1]s, u%[3]s) and in(%[1]s, v%[3]s) and not u%[3]s = v%[3]s) implies (interior(%[2]s, w%[3]s) implies (in(%[1]s, z%[3]s) and w%[3]s <y z%[3]s))`,
}

// planAskFresh: the default scale-1 land-use map, posted and asked once in
// set-up (which caches its invariant and compiled evaluator), then n
// sentences that never repeat, over region pairs and templates the seed
// picks. Every op misses the answer cache and hits the evaluator cache.
func planAskFresh(rng *rand.Rand, n int) (*plan, error) {
	p := &plan{workload: "ask-fresh"}
	inst, err := landUse(workload.DefaultLandUse(1).Seed)
	if err != nil {
		return nil, err
	}
	d, err := blobDoc(inst)
	if err != nil {
		return nil, err
	}
	p.corpus = []doc{d}
	names := inst.SortedNames()
	sentence := func(tag string) askItem {
		a := rng.Intn(len(names))
		b := (a + 1 + rng.Intn(len(names)-1)) % len(names)
		t := rng.Intn(len(freshTemplates))
		f := fmt.Sprintf(freshTemplates[t], names[a], names[b], tag)
		return askItem{inst: inst, id: d.id, formula: f, label: fmt.Sprint("template", t)}
	}
	p.prime = []askItem{sentence("_warm")}
	for i := 0; i < n; i++ {
		p.asks = append(p.asks, sentence(fmt.Sprintf("_%d", i)))
	}
	return p, nil
}

// --- ingest ------------------------------------------------------------------

// ingestKinds is the fixed round-robin of map kinds. Their ops cost about
// 15, 100 and 200 ms on a 2-vCPU host, so with exact thirds the median op
// is a commune and the 90th percentile a land-use map, both well inside
// their band.
var ingestKinds = []struct {
	name string
	make func(int64) (*spatial.Instance, error)
}{{"hydrography", hydrography}, {"commune", commune}, {"landuse", landUse}}

// planIngest: ingestBase fixed maps posted and asked in set-up, then n ops
// that each post a never-seen GeoJSON map (fresh seeded generator seed),
// ask it once and fetch its similarK nearest neighbours.
func planIngest(rng *rand.Rand, n int) (*plan, error) {
	p := &plan{workload: "ingest"}
	// Map i is of kind i mod 3. The set-up maps are the same for every seed,
	// so set-up does the same work in every run.
	seeds := make([]int64, ingestBase+n)
	for i := range seeds {
		if i < ingestBase {
			seeds[i] = int64(i/len(ingestKinds) + 1)
		} else {
			seeds[i] = rng.Int63()
		}
	}
	docs := make([]doc, len(seeds))
	build := func(i int) (err error) {
		src, err := ingestKinds[i%len(ingestKinds)].make(seeds[i])
		if err != nil {
			return err
		}
		docs[i], err = geoDoc(src)
		return err
	}
	if err := parallel(len(seeds), runtime.NumCPU(), build); err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	for i := range docs {
		for seen[docs[i].id] {
			seeds[i] = rng.Int63()
			if err := build(i); err != nil {
				return nil, err
			}
		}
		seen[docs[i].id] = true
		// The imported schema holds only non-empty regions.
		d := docs[i]
		names := d.inst.Schema().Names()
		a := rng.Intn(len(names))
		b := (a + 1 + rng.Intn(len(names)-1)) % len(names)
		o := ingestOp{doc: d, ask: askItem{inst: d.inst, id: d.id, alias: "intersects",
			regions: []string{names[a], names[b]}, label: ingestKinds[i%len(ingestKinds)].name}}
		if i < ingestBase {
			p.corpus = append(p.corpus, o.doc)
			p.prime = append(p.prime, o.ask)
		} else {
			p.maps = append(p.maps, o)
		}
	}
	return p, nil
}

// --- reopen ------------------------------------------------------------------

// reopenShapes are the invertible single-region shapes the reopen store is
// built from: nested annuli around an isolated point, and rows of disjoint
// squares. Translated copies share an invariant, so the fixpoint strategy's
// linear realisation (and its compiled evaluator) is the same per shape.
func reopenShapes() ([]*spatial.Instance, error) {
	var out []*spatial.Instance
	for levels := 1; levels <= 2; levels++ {
		s, err := workload.NestedRegions(levels)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	for squares := 2; squares <= 7; squares++ {
		s, err := workload.MultiComponent(squares)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// reopenTemplates are topological sentences over the single region P; %[1]s
// suffixes every variable so each op's canonical text is new. They must be
// topological: the fixpoint strategy decides a sentence on the invariant's
// linear realisation, which is only homeomorphic to the instance, so only a
// topological sentence has one answer for both strategies and for every
// translated copy. On these shapes the answers are true (P has interior),
// false (P is not empty) and true.
var reopenTemplates = []string{
	`exists a%[1]s . exists b%[1]s . interior(P, a%[1]s) and in(P, b%[1]s) and not interior(P, b%[1]s) and a%[1]s <x b%[1]s`,
	`forall a%[1]s . in(P, a%[1]s) implies (exists b%[1]s . interior(P, b%[1]s) and b%[1]s <y a%[1]s)`,
	`forall a%[1]s . exists b%[1]s . exists c%[1]s . (in(P, a%[1]s) and not interior(P, a%[1]s)) implies (interior(P, b%[1]s) and not in(P, c%[1]s))`,
}

// planReopen: reopenFactor × invariantCache translated shapes (plus one
// warm-up copy per shape) make the store; op i fetches the neighbours of
// the next stored instance in a fixed cycle, then asks it a fresh sentence.
func planReopen(rng *rand.Rand, n int) (*plan, error) {
	p := &plan{workload: "reopen", restart: true}
	shapes, err := reopenShapes()
	if err != nil {
		return nil, err
	}
	stored := reopenFactor * invariantCache
	seen := map[string]bool{}
	add := func(shape *spatial.Instance) error {
		for {
			inst, err := translated(shape, rng.Int63n(1<<20), rng.Int63n(1<<20))
			if err != nil {
				return err
			}
			d, err := blobDoc(inst)
			if err != nil {
				return err
			}
			if !seen[d.id] {
				seen[d.id] = true
				p.corpus = append(p.corpus, d)
				return nil
			}
		}
	}
	for i := 0; i < stored+len(shapes); i++ {
		if err := add(shapes[i%len(shapes)]); err != nil {
			return nil, err
		}
	}
	sentence := func(c int, tag string) askItem {
		d := p.corpus[c]
		t := rng.Intn(len(reopenTemplates))
		f := fmt.Sprintf(reopenTemplates[t], tag)
		return askItem{inst: d.inst, id: d.id, formula: f, label: fmt.Sprintf("shape%d/template%d", c%len(shapes), t)}
	}
	// The last len(shapes) corpus entries are the warm-up copies: asking
	// them after the restart compiles each shape's linear realisation once,
	// and they are never part of the cycle.
	for c := stored; c < len(p.corpus); c++ {
		p.warm = append(p.warm, sentence(c, "_warm"))
	}
	for i := 0; i < n; i++ {
		c := i % stored
		p.cycle = append(p.cycle, c)
		p.asks = append(p.asks, sentence(c, fmt.Sprintf("_%d", i)))
	}
	return p, nil
}

// allAsks lists every question of the plan whose answer must be known, each
// once (ask-repeat primes with its pool).
func (p *plan) allAsks() []*askItem {
	var out []*askItem
	seen := map[*askItem]bool{}
	for _, list := range [][]askItem{p.prime, p.pool, p.asks, p.warm} {
		for i := range list {
			if !seen[&list[i]] {
				seen[&list[i]] = true
				out = append(out, &list[i])
			}
		}
	}
	for i := range p.maps {
		out = append(out, &p.maps[i].ask)
	}
	return out
}

// inputSignature renders every byte the plan would send, in order; the
// self-tests compare it across seeds.
func (p *plan) inputSignature() []byte {
	var b strings.Builder
	for _, d := range p.corpus {
		b.Write(d.body)
	}
	for _, a := range p.prime {
		b.Write(a.body())
	}
	for _, i := range p.seq {
		b.Write(p.pool[i].body())
	}
	for _, a := range p.asks {
		b.Write(a.body())
	}
	for _, a := range p.warm {
		b.Write(a.body())
	}
	for _, o := range p.maps {
		b.Write(o.doc.body)
		b.Write(o.ask.body())
	}
	return []byte(b.String())
}
