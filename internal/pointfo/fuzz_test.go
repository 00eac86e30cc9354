package pointfo

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/region"
	"repro/internal/spatial"
	"repro/internal/workload"
)

// FuzzCompiledVsTreeEval is the differential oracle for the compiled bitset
// evaluator: a random sentence of the point language, generated from the
// fuzzed bytes, is evaluated both by the tree-walk Evaluator (the reference
// semantics straight off the geometry, reference_test.go) and by the
// CompiledEvaluator (membership matrix + quantifier plans).  Every generated
// sentence must compile, and the two must agree on every instance.
func FuzzCompiledVsTreeEval(f *testing.F) {
	fixtures := evalFixtures(f)
	seeds := []string{
		"", "overlap", "disjoint", "edge touch", "annulus", "mixed dims",
		"exists u . in(P, u) and interior(Q, u)",
		"forall u . in(P, u) implies not interior(Q, u)",
		"\x00\xff deep quantifier soup",
		"0123456789abcdef",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		g := newEvalGen(src)
		fx := fixtures[g.rng.Intn(len(fixtures))]
		g.regions = fx.regions
		q := g.formula(3, nil)

		got, err := fx.ce.EvalPoint(q)
		if err != nil {
			t.Fatalf("compiled EvalPoint(%s): %v", q, err)
		}
		want, err := fx.ev.EvalPoint(q, nil)
		if err != nil {
			t.Fatalf("tree-walk EvalPoint(%s): %v", q, err)
		}
		if got != want {
			t.Fatalf("compiled(%s) = %v, tree-walk = %v", q, got, want)
		}
	})
}

// TestCompiledAndReferenceAgreeOnWorkloads runs the compiled evaluator and
// the tree-walk reference side by side on every workload generator's
// scale-1 instance (as `serve` scales them), over the canonical per-region
// questions, the per-pair questions on the first four regions, and a few
// depth-3 alternations.
func TestCompiledAndReferenceAgreeOnWorkloads(t *testing.T) {
	type inst struct {
		name string
		mk   func() (*spatial.Instance, error)
	}
	answers := map[bool]int{}
	for _, w := range []inst{
		{"landuse", func() (*spatial.Instance, error) { return workload.LandUse(workload.DefaultLandUse(1)) }},
		{"hydrography", func() (*spatial.Instance, error) { return workload.Hydrography(workload.DefaultHydrography(1)) }},
		{"commune", func() (*spatial.Instance, error) { return workload.Commune(workload.DefaultCommune(1)) }},
		{"nested", func() (*spatial.Instance, error) { return workload.NestedRegions(2) }},
		{"multicomponent", func() (*spatial.Instance, error) { return workload.MultiComponent(3) }},
	} {
		t.Run(w.name, func(t *testing.T) {
			in, err := w.mk()
			if err != nil {
				t.Fatal(err)
			}
			ev, err := NewEvaluator(in)
			if err != nil {
				t.Fatal(err)
			}
			ce := CompileFromSample(ev.sample)
			regions := ce.Sample().Regions
			var qs []PointFormula
			for _, p := range regions {
				qs = append(qs,
					PExists{[]string{"u"}, In{p, "u"}},
					PExists{[]string{"u"}, InInterior{p, "u"}})
			}
			pairs := regions[:min(len(regions), 4)]
			for _, p := range pairs {
				for _, q := range pairs {
					if p != q {
						qs = append(qs, QueryIntersect(p, q), QueryContained(p, q), QueryBoundaryOnlyIntersection(p, q))
					}
				}
			}
			// The alternations use the first and last nonempty regions, so
			// their quantifiers do not all stop at an empty membership column.
			var populated []string
			for r, name := range regions {
				if ce.Sample().In[r].any() {
					populated = append(populated, name)
				}
			}
			qs = append(qs, depthAlternations(populated[0], populated[len(populated)-1])...)
			for _, q := range qs {
				answers[agree(t, ev, ce, q)]++
			}
		})
	}
	if answers[true] == 0 || answers[false] == 0 {
		t.Errorf("answers %v: want both true and false answers", answers)
	}
}

// depthAlternations returns ∃∀∃ and ∀∃∀ sentences over regions a and c,
// among them the benchmark's exhaustive depthQuery.
func depthAlternations(a, c string) []PointFormula {
	return []PointFormula{
		depthQuery(a, c, 3),
		// Some point u of a has, for every point v of c, a point right of u
		// and above v.
		PExists{[]string{"u"}, PAnd{[]PointFormula{In{a, "u"},
			PForall{[]string{"v"}, PImplies{In{c, "v"},
				PExists{[]string{"w"}, PAnd{[]PointFormula{LessX{"u", "w"}, LessY{"v", "w"}}}}}}}}},
		// Every interior point of a has, to its left, a non-member v of c
		// with no point of c above v.
		PForall{[]string{"u"}, PImplies{InInterior{a, "u"},
			PExists{[]string{"v"}, PAnd{[]PointFormula{LessX{"v", "u"}, PNot{In{c, "v"}},
				PForall{[]string{"w"}, PImplies{LessY{"v", "w"}, PNot{In{c, "w"}}}}}}}}},
	}
}

type evalFixture struct {
	ev      *Evaluator
	ce      *CompiledEvaluator
	regions []string
}

// evalFixtures builds generator-shaped instances covering the sign classes
// the membership matrix distinguishes: overlap, disjointness, boundary-only
// contact, proper containment, a region with a hole, and mixed dimensions
// (an areal region, a curve and an isolated point).
func evalFixtures(f *testing.F) []evalFixture {
	shapes := []map[string]region.Region{
		{"P": region.Rect(0, 0, 4, 4), "Q": region.Rect(2, 2, 6, 6)},
		{"P": region.Rect(0, 0, 4, 4), "Q": region.Rect(10, 10, 14, 14)},
		{"P": region.Rect(0, 0, 2, 2), "Q": region.Rect(2, 0, 4, 2)},
		{"P": region.Rect(3, 3, 6, 6), "Q": region.Rect(0, 0, 10, 10)},
		{"P": region.Annulus(0, 0, 10, 10, 3), "Q": region.Rect(4, 4, 6, 6)},
		{
			"P": region.Rect(0, 0, 6, 6),
			"Q": region.FromPolyline(geom.MustPolyline(geom.Pt(-2, 3), geom.Pt(8, 3))),
			"R": region.FromPoint(geom.Pt(3, 3)),
		},
	}
	fixtures := make([]evalFixture, 0, len(shapes))
	for _, regs := range shapes {
		names := make([]string, 0, len(regs))
		for n := range regs {
			names = append(names, n)
		}
		inst := spatial.MustBuild(spatial.MustSchema(names...), regs)
		ev, err := NewEvaluator(inst)
		if err != nil {
			f.Fatalf("NewEvaluator: %v", err)
		}
		ev.memo = map[memoKey]bool{}
		ce, err := CompileEvaluator(inst)
		if err != nil {
			f.Fatalf("CompileEvaluator: %v", err)
		}
		fixtures = append(fixtures, evalFixture{ev: ev, ce: ce, regions: ce.Sample().Regions})
	}
	return fixtures
}

// evalGen derives a deterministic formula from the fuzzed bytes, mirroring
// the queryl fuzz generator: quantifiers introduce variables, atoms only use
// variables in scope, so every generated formula is a sentence.  Unlike the
// parser-shaped generator it deliberately emits empty connectives, unused
// quantified variables and shadowed names — shapes the planner must survive.
type evalGen struct {
	rng     *rand.Rand
	regions []string
}

func newEvalGen(seed string) *evalGen {
	h := int64(1469598103934665603)
	for i := 0; i < len(seed); i++ {
		h ^= int64(seed[i])
		h *= 1099511628211
	}
	return &evalGen{rng: rand.New(rand.NewSource(h))}
}

func (g *evalGen) region() string { return g.regions[g.rng.Intn(len(g.regions))] }

func (g *evalGen) formula(depth int, scope []string) PointFormula {
	if len(scope) == 0 {
		if depth <= 0 || g.rng.Intn(8) == 0 {
			if g.rng.Intn(2) == 0 {
				return PAnd{}
			}
			return POr{}
		}
		return g.quantifier(depth, scope)
	}
	if depth <= 0 {
		return g.atom(scope)
	}
	switch g.rng.Intn(8) {
	case 0:
		return g.quantifier(depth, scope)
	case 1:
		return PNot{F: g.formula(depth-1, scope)}
	case 2:
		return PAnd{Fs: g.operands(depth, scope)}
	case 3:
		return POr{Fs: g.operands(depth, scope)}
	case 4:
		return PImplies{L: g.formula(depth-1, scope), R: g.formula(depth-1, scope)}
	default:
		return g.atom(scope)
	}
}

func (g *evalGen) operands(depth int, scope []string) []PointFormula {
	fs := make([]PointFormula, g.rng.Intn(4))
	for i := range fs {
		fs[i] = g.formula(depth-1, scope)
	}
	return fs
}

func (g *evalGen) quantifier(depth int, scope []string) PointFormula {
	n := 1 + g.rng.Intn(2)
	vars := make([]string, n)
	inner := scope
	for i := range vars {
		// One time in four, shadow a name already in scope instead of
		// introducing a fresh one.
		if len(inner) > 0 && g.rng.Intn(4) == 0 {
			vars[i] = inner[g.rng.Intn(len(inner))]
		} else {
			vars[i] = "v" + string(rune('a'+len(inner)))
		}
		inner = append(inner, vars[i])
	}
	body := g.formula(depth-1, inner)
	if g.rng.Intn(2) == 0 {
		return PExists{Vars: vars, Body: body}
	}
	return PForall{Vars: vars, Body: body}
}

func (g *evalGen) atom(scope []string) PointFormula {
	v := func() string { return scope[g.rng.Intn(len(scope))] }
	switch g.rng.Intn(5) {
	case 0:
		return In{Region: g.region(), Var: v()}
	case 1:
		return InInterior{Region: g.region(), Var: v()}
	case 2:
		return LessX{L: v(), R: v()}
	case 3:
		return LessY{L: v(), R: v()}
	default:
		return SamePoint{L: v(), R: v()}
	}
}
