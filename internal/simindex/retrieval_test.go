package simindex

import (
	"cmp"
	"fmt"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/invariant"
	"repro/internal/rat"
	"repro/internal/region"
	"repro/internal/spatial"
	"repro/internal/workload"
)

// retrievalCorpus names the source maps of a retrieval-quality measurement:
// land use at one scale, plus commune and hydrography at scale 1, for every
// generator seed in [seedLo, seedHi].
type retrievalCorpus struct {
	landUseScale   int
	seedLo, seedHi int64
}

// committedCorpus is the corpus TestRetrievalQuality measures: 60 source
// maps, 360 edited probes.
var committedCorpus = retrievalCorpus{landUseScale: 1, seedLo: 1, seedHi: 20}

// retrievalQuality holds the figures of one measurement.
type retrievalQuality struct {
	probes int
	// hits1 and hits5 count the probes whose source ranks first, and in the
	// top five, of the index's answer.
	hits1, hits5 int
	// tau is Kendall's τ-b between a variant's distance to its source and
	// its edit count, computed per source and averaged over the sources.
	tau float64
}

func (q retrievalQuality) recall1() float64 { return float64(q.hits1) / float64(q.probes) }
func (q retrievalQuality) recall5() float64 { return float64(q.hits5) / float64(q.probes) }

// retrievalEdit is one controlled edit of a map, with the number of unit
// edits it makes. apply gets a copy of the map's features by schema position
// and returns the edited features.
type retrievalEdit struct {
	name  string
	count int
	apply func(fs [][]region.Feature) [][]region.Feature
}

// retrievalEdits are the six edits every source map gets. Homeomorphic
// copies are left out: they land in the exact tier, which
// TestExactTierAgreesWithIsomorphic covers.
var retrievalEdits = []retrievalEdit{
	{"delete1", 1, func(fs [][]region.Feature) [][]region.Feature { return deleteFeatures(fs, 1) }},
	{"move", 1, moveFeature},
	{"hole", 1, punchHole},
	{"point", 1, addFarPoint},
	{"delete1+point", 2, func(fs [][]region.Feature) [][]region.Feature { return addFarPoint(deleteFeatures(fs, 1)) }},
	{"delete3", 3, func(fs [][]region.Feature) [][]region.Feature { return deleteFeatures(fs, 3) }},
}

// retrievalSources generates the corpus's source maps, named by generator
// and seed.
func retrievalSources(tb testing.TB, c retrievalCorpus) ([]string, []*spatial.Instance) {
	tb.Helper()
	var names []string
	var insts []*spatial.Instance
	add := func(name string, inst *spatial.Instance, err error) {
		if err != nil {
			tb.Fatalf("generate %s: %v", name, err)
		}
		names = append(names, name)
		insts = append(insts, inst)
	}
	for seed := c.seedLo; seed <= c.seedHi; seed++ {
		lp := workload.DefaultLandUse(c.landUseScale)
		lp.Seed = seed
		landuse, err := workload.LandUse(lp)
		add(fmt.Sprintf("landuse/seed%02d", seed), landuse, err)
		cp := workload.DefaultCommune(1)
		cp.Seed = seed
		commune, err := workload.Commune(cp)
		add(fmt.Sprintf("commune/seed%02d", seed), commune, err)
		hp := workload.DefaultHydrography(1)
		hp.Seed = seed
		hydro, err := workload.Hydrography(hp)
		add(fmt.Sprintf("hydrography/seed%02d", seed), hydro, err)
	}
	return names, insts
}

// measureRetrieval indexes every source map and its six edited variants
// together, probes the index with each variant, and reports how well the
// approximate tier ranks the variant's source.
func measureRetrieval(tb testing.TB, c retrievalCorpus) retrievalQuality {
	tb.Helper()
	return rankRetrieval(retrievalEntries(tb, c))
}

// retrievalEntries builds the index entries of the corpus's source maps and
// of each source's variants, in retrievalEdits order.
func retrievalEntries(tb testing.TB, c retrievalCorpus) (srcs []*Entry, variants [][]*Entry) {
	tb.Helper()
	names, sources := retrievalSources(tb, c)
	entry := func(id string, inst *spatial.Instance) *Entry {
		inv, err := invariant.Compute(inst)
		if err != nil {
			tb.Fatalf("%s: invariant: %v", id, err)
		}
		return MakeEntry(id, inv)
	}
	srcs = make([]*Entry, len(sources))
	variants = make([][]*Entry, len(sources))
	for i, inst := range sources {
		srcs[i] = entry(names[i], inst)
		for _, ed := range retrievalEdits {
			fs := ed.apply(featuresOf(inst))
			variants[i] = append(variants[i], entry(names[i]+"/"+ed.name, instanceOf(tb, inst.Schema(), fs)))
		}
	}
	return srcs, variants
}

// rankRetrieval indexes the sources and their variants together and probes
// the index with each variant.
func rankRetrieval(srcs []*Entry, variants [][]*Entry) retrievalQuality {
	x := New()
	for i, src := range srcs {
		x.Add(src)
		for _, v := range variants[i] {
			x.Add(v)
		}
	}
	var q retrievalQuality
	tauSum := 0.0
	for i, src := range srcs {
		dist := make([]float64, len(variants[i]))
		edits := make([]float64, len(variants[i]))
		for j, v := range variants[i] {
			q.probes++
			for rank, m := range x.Query(v, 5) {
				if m.ID == src.ID {
					if rank == 0 {
						q.hits1++
					}
					q.hits5++
				}
			}
			dist[j] = Distance(src.Vec, v.Vec)
			edits[j] = float64(retrievalEdits[j].count)
		}
		tauSum += kendallTauB(dist, edits)
	}
	q.tau = tauSum / float64(len(srcs))
	return q
}

// kendallTauB returns Kendall's τ-b between x and y, and 0 when either is
// constant.
func kendallTauB(x, y []float64) float64 {
	var concordant, discordant, tiedX, tiedY, pairs int
	for i := range x {
		for j := i + 1; j < len(x); j++ {
			pairs++
			dx, dy := cmp.Compare(x[i], x[j]), cmp.Compare(y[i], y[j])
			if dx == 0 {
				tiedX++
			}
			if dy == 0 {
				tiedY++
			}
			switch dx * dy {
			case 1:
				concordant++
			case -1:
				discordant++
			}
		}
	}
	den := math.Sqrt(float64(pairs-tiedX) * float64(pairs-tiedY))
	if den == 0 {
		return 0
	}
	return float64(concordant-discordant) / den
}

// featuresOf copies an instance's features, grouped by schema position.
func featuresOf(inst *spatial.Instance) [][]region.Feature {
	names := inst.Schema().Names()
	fs := make([][]region.Feature, len(names))
	for r, name := range names {
		fs[r] = append([]region.Feature(nil), inst.Region(name).Features...)
	}
	return fs
}

// instanceOf builds an instance over schema from features grouped by schema
// position.
func instanceOf(tb testing.TB, schema *spatial.Schema, fs [][]region.Feature) *spatial.Instance {
	tb.Helper()
	inst := spatial.NewInstance(schema)
	for r, name := range schema.Names() {
		if len(fs[r]) == 0 {
			continue
		}
		if err := inst.Set(name, region.Region{Features: fs[r]}); err != nil {
			tb.Fatalf("edited map: %v", err)
		}
	}
	return inst
}

// deleteFeatures removes the first n features in schema order.
func deleteFeatures(fs [][]region.Feature, n int) [][]region.Feature {
	for r := range fs {
		k := min(n, len(fs[r]))
		fs[r] = fs[r][k:]
		n -= k
	}
	return fs
}

// addFarPoint adds an isolated point, far outside every generator's map, to
// the first non-empty region.
func addFarPoint(fs [][]region.Feature) [][]region.Feature {
	for r := range fs {
		if len(fs[r]) > 0 {
			fs[r] = append(fs[r], region.PointFeature(geom.Pt(-1000, -1000)))
			break
		}
	}
	return fs
}

// moveFeature moves one feature to another region. It takes the first
// feature, in schema order, that shares a border with a feature of a later
// region (cyclically, in schema order), and moves it to the first such
// region; on land use this merges a parcel into the class of a parcel next
// to it. A map without such a pair moves its first feature to the next
// schema region.
func moveFeature(fs [][]region.Feature) [][]region.Feature {
	n := len(fs)
	for r := range fs {
		for i, f := range fs[r] {
			for step := 1; step < n; step++ {
				to := (r + step) % n
				for _, g := range fs[to] {
					if shareBorder(f, g) {
						return moveTo(fs, r, i, to)
					}
				}
			}
		}
	}
	for r := range fs {
		if len(fs[r]) > 0 {
			return moveTo(fs, r, 0, (r+1)%n)
		}
	}
	return fs
}

func moveTo(fs [][]region.Feature, r, i, to int) [][]region.Feature {
	f := fs[r][i]
	fs[r] = append(fs[r][:i:i], fs[r][i+1:]...)
	fs[to] = append(fs[to], f)
	return fs
}

// shareBorder reports whether two area features' outer rings share at
// least two vertices. The generators' parcels next to each other share a
// whole side, vertex for vertex; parcels that only touch at a corner share
// one.
func shareBorder(f, g region.Feature) bool {
	if f.Dim != region.Dim2 || g.Dim != region.Dim2 {
		return false
	}
	seen := make(map[geom.PointKey]bool, len(f.Outer.Vertices))
	for _, p := range f.Outer.Vertices {
		seen[p.Key()] = true
	}
	shared := 0
	for _, p := range g.Outer.Vertices {
		if seen[p.Key()] {
			shared++
		}
	}
	return shared >= 2
}

// punchHole adds a 2×2 square hole, centred on the centroid of its outer
// ring's vertices, to the first area feature in schema order.
func punchHole(fs [][]region.Feature) [][]region.Feature {
	for r := range fs {
		for i, f := range fs[r] {
			if f.Dim != region.Dim2 {
				continue
			}
			cx, cy := rat.Zero, rat.Zero
			for _, p := range f.Outer.Vertices {
				cx, cy = cx.Add(p.X), cy.Add(p.Y)
			}
			n := rat.FromInt(int64(len(f.Outer.Vertices)))
			cx, cy = cx.Div(n), cy.Div(n)
			at := func(dx, dy int64) geom.Point {
				return geom.PtR(cx.Add(rat.FromInt(dx)), cy.Add(rat.FromInt(dy)))
			}
			hole := geom.MustPolygon(at(-1, -1), at(1, -1), at(1, 1), at(-1, 1))
			fs[r][i] = region.AreaFeature(f.Outer, append(append([]geom.Polygon(nil), f.Holes...), hole)...)
			return fs
		}
	}
	panic("punch hole: the corpus map has no area feature")
}

// TestRetrievalQuality measures what the approximate tier ranks. Every
// source map gets six controlled edits, each with a known edit count; the
// sources and their variants are indexed together, and each variant probes
// the index the way Index.Query answers a similarity query. The figures are
// deterministic, and each is asserted as a floor at the value this feature
// vector reaches, so a feature change that ranks worse fails here.
func TestRetrievalQuality(t *testing.T) {
	q := measureRetrieval(t, committedCorpus)
	t.Logf("probes %d: recall@1 %d (%.3f), recall@5 %d (%.3f), mean τ-b %.4f",
		q.probes, q.hits1, q.recall1(), q.hits5, q.recall5(), q.tau)
	if q.probes != 360 {
		t.Fatalf("measured %d probes, want 360", q.probes)
	}
	// The floors are the figures of the 24-coordinate vector. The 32
	// coordinates before it read 14, 35 and 0.1631.
	const minHits1, minHits5, minTau = 15, 39, 0.4037
	if q.hits1 < minHits1 {
		t.Errorf("recall@1 fell to %d of %d probes, floor %d", q.hits1, q.probes, minHits1)
	}
	if q.hits5 < minHits5 {
		t.Errorf("recall@5 fell to %d of %d probes, floor %d", q.hits5, q.probes, minHits5)
	}
	if q.tau < minTau {
		t.Errorf("mean Kendall τ-b fell to %.4f, floor %.4f", q.tau, minTau)
	}
}

// BenchmarkRetrievalQuality reports TestRetrievalQuality's figures, so a
// one-iteration benchmark run records them beside the timings.
func BenchmarkRetrievalQuality(b *testing.B) {
	var q retrievalQuality
	for range b.N {
		q = measureRetrieval(b, committedCorpus)
	}
	b.ReportMetric(q.recall1(), "recall@1")
	b.ReportMetric(q.recall5(), "recall@5")
	b.ReportMetric(q.tau, "tau")
}
