package translate

import (
	"testing"

	"repro/internal/invariant"
	"repro/internal/spatial"
	"repro/internal/workload"
)

// BenchmarkCanonicalCode records how the Theorem 3.4 encoding scales with
// the size of the largest component, the quantity the exact similarity
// tier budgets (160 cells). Land use at scale 3 lies past that budget: the
// index abstains there, and the figure is what a budget change would pay.
func BenchmarkCanonicalCode(b *testing.B) {
	cases := []struct {
		name string
		gen  func() (*spatial.Instance, error)
	}{
		{"landuse-1", func() (*spatial.Instance, error) { return workload.LandUse(workload.DefaultLandUse(1)) }},
		{"landuse-2", func() (*spatial.Instance, error) { return workload.LandUse(workload.DefaultLandUse(2)) }},
		{"landuse-3", func() (*spatial.Instance, error) { return workload.LandUse(workload.DefaultLandUse(3)) }},
		{"commune-1", func() (*spatial.Instance, error) { return workload.Commune(workload.DefaultCommune(1)) }},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			inst, err := tc.gen()
			if err != nil {
				b.Fatal(err)
			}
			inv, err := invariant.Compute(inst)
			if err != nil {
				b.Fatal(err)
			}
			cells := 0
			for _, c := range inv.Components().List {
				cells = max(cells, c.Size())
			}
			b.ReportAllocs()
			for b.Loop() {
				CanonicalCode(inv)
			}
			b.ReportMetric(float64(cells), "cells")
		})
	}
}
