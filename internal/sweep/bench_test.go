package sweep_test

import (
	"fmt"
	"testing"

	"repro/internal/geom"
	"repro/internal/sweep"
)

// BenchmarkImportValidation compares quadratic and sweep ring validation on
// sawtooth rings.  At 8 to 64 vertices it measures the crossover that sets
// ValidateArea's quadraticCutoff.  At 1k and 10k vertices it pins the
// asymptotic win the raised GeoJSON vertex budgets depend on (the quadratic
// checker is omitted beyond that — 7.4s at 10k scales to minutes at 50k),
// with the sweep also measured at 100k, the new MaxRingVertices.  CI runs
// this with -benchtime=1x and archives the parsed output as BENCH_ci.json,
// so the asymptotic gap is tracked over time.
func BenchmarkImportValidation(b *testing.B) {
	for _, n := range []int{8, 16, 32, 48, 64, 1000, 10000} {
		pg := sawtoothRing(n)
		b.Run(fmt.Sprintf("quadratic/%dv", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := sweep.ValidateAreaQuadratic(pg, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("sweep/%dv", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := sweep.ValidateAreaSweep(pg, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	pg := sawtoothRing(100000)
	b.Run("sweep/100000v", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := sweep.ValidateAreaSweep(pg, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkValidateAreaHoles measures the polygon-with-holes path: one
// outer ring with a grid of holes, where the old quadratic hole checks were
// the dominant cost.
func BenchmarkValidateAreaHoles(b *testing.B) {
	outer := geom.Rect(0, 0, 10000, 10000)
	var holes []geom.Polygon
	for i := int64(0); i < 16; i++ {
		for j := int64(0); j < 16; j++ {
			holes = append(holes, geom.Rect(10+i*600, 10+j*600, 400+i*600, 400+j*600))
		}
	}
	b.Run("sweep/256holes", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := sweep.ValidateAreaSweep(outer, holes); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("quadratic/256holes", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := sweep.ValidateAreaQuadratic(outer, holes); err != nil {
				b.Fatal(err)
			}
		}
	})
}
