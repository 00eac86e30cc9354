package arrangement

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/region"
	"repro/internal/spatial"
	"repro/internal/workload"
)

// squaresInstance is one region made of rows×cols disjoint unit squares: many
// faces, few crossings.
func squaresInstance(tb testing.TB, rows, cols int64) *spatial.Instance {
	tb.Helper()
	var feats []region.Feature
	for i := int64(0); i < rows; i++ {
		for j := int64(0); j < cols; j++ {
			feats = append(feats, region.AreaFeature(geom.Rect(2*j, 2*i, 2*j+1, 2*i+1)))
		}
	}
	return singleRegionInstance(tb, feats)
}

// linesInstance is one region made of n/2 near-horizontal and n/2
// near-vertical segments, every near-horizontal crossing every near-vertical
// one: (n/2)² crossings at non-integer points.
func linesInstance(tb testing.TB, n int64) *spatial.Instance {
	tb.Helper()
	half := n / 2
	span := 4*half + 4
	var feats []region.Feature
	for i := int64(0); i < half; i++ {
		feats = append(feats,
			region.LineFeature(geom.MustPolyline(geom.Pt(-1, 4*i+1), geom.Pt(span, 4*i+2))),
			region.LineFeature(geom.MustPolyline(geom.Pt(4*i+1, -1), geom.Pt(4*i+2, span))))
	}
	return singleRegionInstance(tb, feats)
}

func singleRegionInstance(tb testing.TB, feats []region.Feature) *spatial.Instance {
	tb.Helper()
	r, err := region.New(feats...)
	if err != nil {
		tb.Fatal(err)
	}
	inst, err := spatial.Build(spatial.MustSchema("P"), map[string]region.Region{"P": r})
	if err != nil {
		tb.Fatal(err)
	}
	return inst
}

// BenchmarkArrangementScaling pins how one default-path Build scales with
// the number of faces: grids of disjoint squares (faces ≈ segments/4) and
// grids of crossing lines (faces ≈ crossings).  A per-face pass over every
// sub-segment makes both families quadratic.
func BenchmarkArrangementScaling(b *testing.B) {
	cases := []struct {
		name string
		inst *spatial.Instance
	}{
		{"squares-500", squaresInstance(b, 20, 25)},
		{"squares-2000", squaresInstance(b, 40, 50)},
		{"lines-50", linesInstance(b, 50)},
		{"lines-100", linesInstance(b, 100)},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var faces int
			for i := 0; i < b.N; i++ {
				cx, err := Build(tc.inst)
				if err != nil {
					b.Fatal(err)
				}
				faces = len(cx.Faces)
			}
			b.ReportMetric(float64(faces), "faces")
		})
	}
}

// BenchmarkAblationIntersection compares Build against the quadratic
// reference pipeline (all-pairs boxes, ray-shot face representatives,
// point-location classification) on the scale-1 land-use map.
func BenchmarkAblationIntersection(b *testing.B) {
	inst, err := workload.LandUse(workload.DefaultLandUse(1))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Build(inst); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive-pairs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := buildReference(inst); err != nil {
				b.Fatal(err)
			}
		}
	})
}
