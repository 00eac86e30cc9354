package pointfo

import (
	"fmt"
	"testing"

	"repro/internal/spatial"
	"repro/internal/workload"
)

// depthQuery builds an alternating-quantifier sentence of the given
// quantifier depth over two region names: ∃v0, ∀v1, ∃v2, … with membership
// atoms per variable and order atoms linking consecutive variables.  The
// innermost condition demands an interior point that is not in its region,
// so no witness ever reaches it: evaluation cannot stop early on a lucky
// innermost witness, and the benchmark pins the exhaustive worst case the
// server's depth cap guards against.
func depthQuery(a, c string, depth int) PointFormula {
	var rest func(i int) PointFormula
	rest = func(i int) PointFormula {
		if i == depth {
			last := fmt.Sprintf("v%d", depth-1)
			return PAnd{Fs: []PointFormula{
				InInterior{Region: a, Var: last},
				PNot{F: In{Region: a, Var: last}},
			}}
		}
		v := fmt.Sprintf("v%d", i)
		memb := PointFormula(In{Region: a, Var: v})
		if i%2 == 1 {
			memb = In{Region: c, Var: v}
		}
		atoms := []PointFormula{memb}
		if i > 0 {
			prev := fmt.Sprintf("v%d", i-1)
			if i%2 == 0 {
				atoms = append(atoms, LessX{L: prev, R: v})
			} else {
				atoms = append(atoms, LessY{L: v, R: prev})
			}
		}
		if i%2 == 0 {
			return PExists{Vars: []string{v}, Body: PAnd{Fs: append(atoms, rest(i+1))}}
		}
		return PForall{Vars: []string{v}, Body: PImplies{L: PAnd{Fs: atoms}, R: rest(i + 1)}}
	}
	return rest(0)
}

// BenchmarkEvalDepth pins the quantifier-depth scaling of sentence
// evaluation on the E1 and E3 workloads: the compiled bitset evaluator
// (membership matrix + word-parallel quantifier plans) against the tree-walk
// reference that re-asks the geometry per atom.  The tree walk is O(n^depth)
// point tuples with exact-rational containment tests per atom, so it only
// runs to depth 3; compiled runs the full 1–4 range.
func BenchmarkEvalDepth(b *testing.B) {
	// Region pairs are picked from classes that actually own parcels at
	// these scales (e.g. E1 scale 1 spreads 8 parcels over 9 classes, so
	// some classes are empty and would short-circuit every quantifier).
	workloads := []struct {
		name string
		a, c string
		mk   func() (*spatial.Instance, error)
	}{
		{"E1", "class07", "class04", func() (*spatial.Instance, error) { return workload.LandUse(workload.DefaultLandUse(1)) }},
		{"E3", "class00", "class01", func() (*spatial.Instance, error) { return workload.Commune(workload.DefaultCommune(1)) }},
	}
	for _, w := range workloads {
		inst, err := w.mk()
		if err != nil {
			b.Fatal(err)
		}
		ev, err := NewEvaluator(inst)
		if err != nil {
			b.Fatal(err)
		}
		ce, err := CompileEvaluator(inst)
		if err != nil {
			b.Fatal(err)
		}
		for depth := 1; depth <= 4; depth++ {
			q := depthQuery(w.a, w.c, depth)
			b.Run(fmt.Sprintf("%s/depth=%d/compiled", w.name, depth), func(b *testing.B) {
				b.ReportMetric(float64(ce.n), "sample-points")
				for i := 0; i < b.N; i++ {
					if _, err := ce.EvalPoint(q); err != nil {
						b.Fatal(err)
					}
				}
			})
			if depth > 3 {
				continue
			}
			b.Run(fmt.Sprintf("%s/depth=%d/tree", w.name, depth), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := ev.EvalPoint(q, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
