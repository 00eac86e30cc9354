// Package workload generates synthetic cartographic spatial instances with
// the structural shape of the datasets measured in the paper's
// practical-considerations section.  The original Sequoia 2000 and IGN Orange
// datasets are not available; these generators are parameterised to the
// published characteristics (polygon counts, points per polygon, number of
// thematic region classes) so that the compression and degree statistics can
// be regenerated at any scale.
//
// All generators are deterministic functions of their seed.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/region"
	"repro/internal/spatial"
)

// LandUseParams configures the land-use (ground occupancy) generator.
type LandUseParams struct {
	// Cols and Rows give the number of parcels in each direction.
	Cols, Rows int
	// Classes is the number of thematic region names (the paper's ground
	// occupancy data uses 9: agricultural, range, forest, lake, …).
	Classes int
	// PointsPerSide is the number of extra collinear-free vertices inserted
	// into each parcel side, controlling the points-per-polygon ratio.
	PointsPerSide int
	// Seed drives the deterministic pseudo-random choices.
	Seed int64
}

// DefaultLandUse returns parameters scaled down from the Sequoia 2000 ground
// occupancy dataset while preserving its shape ratios (≈80 points per
// polygon, 9 thematic classes).
func DefaultLandUse(scale int) LandUseParams {
	if scale < 1 {
		scale = 1
	}
	return LandUseParams{Cols: 4 * scale, Rows: 2 * scale, Classes: 9, PointsPerSide: 18, Seed: 1}
}

// LandUse generates a land-use map: a grid of parcels with jittered interior
// corners, each parcel assigned to one of the thematic classes.  Adjacent
// parcels of different classes share their border (as in cartographic data),
// producing junction vertices of degree 3 and 4.
func LandUse(p LandUseParams) (*spatial.Instance, error) {
	if p.Cols < 1 || p.Rows < 1 || p.Classes < 1 {
		return nil, fmt.Errorf("workload: invalid land-use parameters %+v", p)
	}
	rng := rand.New(rand.NewSource(p.Seed))
	const cell = 100
	// Jittered grid corners (interior corners only, so the map stays a
	// subdivision of a rectangle).
	corner := make([][]geom.Point, p.Cols+1)
	for i := range corner {
		corner[i] = make([]geom.Point, p.Rows+1)
		for j := range corner[i] {
			x, y := int64(i*cell), int64(j*cell)
			if i > 0 && i < p.Cols && j > 0 && j < p.Rows {
				x += int64(rng.Intn(cell/3)) - cell/6
				y += int64(rng.Intn(cell/3)) - cell/6
			}
			corner[i][j] = geom.Pt(x, y)
		}
	}
	names := make([]string, p.Classes)
	for c := range names {
		names[c] = fmt.Sprintf("class%02d", c)
	}
	schema, err := spatial.NewSchema(names...)
	if err != nil {
		return nil, err
	}
	features := make([][]region.Feature, p.Classes)
	for i := 0; i < p.Cols; i++ {
		for j := 0; j < p.Rows; j++ {
			cls := rng.Intn(p.Classes)
			pg := parcelPolygon(corner[i][j], corner[i+1][j], corner[i+1][j+1], corner[i][j+1], p.PointsPerSide)
			features[cls] = append(features[cls], region.AreaFeature(pg))
		}
	}
	inst := spatial.NewInstance(schema)
	for c, fs := range features {
		if len(fs) == 0 {
			continue
		}
		if err := inst.Set(names[c], region.Region{Features: fs}); err != nil {
			return nil, err
		}
	}
	return inst, nil
}

// parcelPolygon builds a parcel with extra vertices on each side so that the
// points-per-polygon ratio matches cartographic data.  The inserted vertices
// are placed at exact rational positions along the side.
func parcelPolygon(a, b, c, d geom.Point, extra int) geom.Polygon {
	var pts []geom.Point
	side := func(p, q geom.Point) {
		pts = append(pts, p)
		for k := 1; k <= extra; k++ {
			t := ratio(int64(k), int64(extra+1))
			pts = append(pts, geom.PtR(
				p.X.Add(q.X.Sub(p.X).Mul(t)),
				p.Y.Add(q.Y.Sub(p.Y).Mul(t)),
			))
		}
	}
	side(a, b)
	side(b, c)
	side(c, d)
	side(d, a)
	return geom.Polygon{Vertices: pts}
}

// HydrographyParams configures the rivers-and-lakes generator.
type HydrographyParams struct {
	// Rivers is the number of river polylines.
	Rivers int
	// SegmentsPerRiver is the number of segments per river.
	SegmentsPerRiver int
	// Lakes is the number of lake polygons.
	Lakes int
	// Seed drives the deterministic pseudo-random choices.
	Seed int64
}

// DefaultHydrography returns parameters shaped like the Sequoia 2000 rivers,
// lakes and estuaries layer (≈40 points per feature, mostly linear features).
func DefaultHydrography(scale int) HydrographyParams {
	if scale < 1 {
		scale = 1
	}
	return HydrographyParams{Rivers: 6 * scale, SegmentsPerRiver: 30, Lakes: 2 * scale, Seed: 7}
}

// Hydrography generates a hydrography layer: meandering river polylines and
// lake polygons over two region names ("rivers" and "lakes").
func Hydrography(p HydrographyParams) (*spatial.Instance, error) {
	if p.Rivers < 0 || p.Lakes < 0 {
		return nil, fmt.Errorf("workload: invalid hydrography parameters %+v", p)
	}
	rng := rand.New(rand.NewSource(p.Seed))
	schema, err := spatial.NewSchema("rivers", "lakes")
	if err != nil {
		return nil, err
	}
	inst := spatial.NewInstance(schema)

	var riverFeatures []region.Feature
	for r := 0; r < p.Rivers; r++ {
		x, y := int64(0), int64(r*200+50)
		pts := []geom.Point{geom.Pt(x, y)}
		for s := 0; s < p.SegmentsPerRiver; s++ {
			x += int64(20 + rng.Intn(30))
			y += int64(rng.Intn(61)) - 30
			pts = append(pts, geom.Pt(x, y))
		}
		pl, err := geom.NewPolyline(pts)
		if err != nil {
			return nil, err
		}
		riverFeatures = append(riverFeatures, region.LineFeature(pl))
	}
	if len(riverFeatures) > 0 {
		if err := inst.Set("rivers", region.Region{Features: riverFeatures}); err != nil {
			return nil, err
		}
	}

	var lakeFeatures []region.Feature
	for l := 0; l < p.Lakes; l++ {
		cx, cy := int64(l*400+200), int64(p.Rivers*200+300)
		w, h := int64(60+rng.Intn(80)), int64(40+rng.Intn(60))
		lakeFeatures = append(lakeFeatures, region.AreaFeature(jaggedRect(cx, cy, w, h, 6, rng)))
	}
	if len(lakeFeatures) > 0 {
		if err := inst.Set("lakes", region.Region{Features: lakeFeatures}); err != nil {
			return nil, err
		}
	}
	return inst, nil
}

// CommuneParams configures the commune-map generator (IGN Orange-like).
type CommuneParams struct {
	// Parcels is the number of polygons.
	Parcels int
	// PointsPerParcel is the approximate number of vertices per polygon.
	PointsPerParcel int
	// Seed drives the deterministic pseudo-random choices.
	Seed int64
}

// DefaultCommune returns parameters shaped like the IGN Orange dataset
// (145 polygons, ≈82 points per polygon, mixed themes).
func DefaultCommune(scale int) CommuneParams {
	if scale < 1 {
		scale = 1
	}
	return CommuneParams{Parcels: 12 * scale, PointsPerParcel: 80, Seed: 3}
}

// Commune generates a small commune map: a land-use grid sized to the
// requested parcel count with three thematic classes.
func Commune(p CommuneParams) (*spatial.Instance, error) {
	cols := 1
	for cols*cols < p.Parcels {
		cols++
	}
	rows := (p.Parcels + cols - 1) / cols
	extra := p.PointsPerParcel/4 - 1
	if extra < 0 {
		extra = 0
	}
	return LandUse(LandUseParams{Cols: cols, Rows: rows, Classes: 3, PointsPerSide: extra, Seed: p.Seed})
}

// NestedRegions generates a single-region instance with the given number of
// nested annuli plus an isolated point — an instance family within the class
// supported by the invariant inversion (Theorem 2.2, strategy iv).
func NestedRegions(levels int) (*spatial.Instance, error) {
	if levels < 1 {
		return nil, fmt.Errorf("workload: levels must be positive")
	}
	var features []region.Feature
	size := int64(levels*20 + 20)
	for l := 0; l < levels; l++ {
		off := int64(l * 10)
		features = append(features, region.AreaFeature(
			geom.Rect(off, off, size-off, size-off),
			geom.Rect(off+4, off+4, size-off-4, size-off-4),
		))
	}
	features = append(features, region.PointFeature(geom.Pt(size+30, 0)))
	schema, err := spatial.NewSchema("P")
	if err != nil {
		return nil, err
	}
	inst := spatial.NewInstance(schema)
	if err := inst.Set("P", region.Region{Features: features}); err != nil {
		return nil, err
	}
	return inst, nil
}

// MultiComponent generates a single-region instance with n disjoint square
// components (used by the fixpoint+counting experiments: parity of the number
// of connected components).
func MultiComponent(n int) (*spatial.Instance, error) {
	if n < 0 {
		return nil, fmt.Errorf("workload: negative component count")
	}
	var features []region.Feature
	for i := 0; i < n; i++ {
		off := int64(i * 50)
		features = append(features, region.AreaFeature(geom.Rect(off, 0, off+20, 20)))
	}
	schema, err := spatial.NewSchema("P")
	if err != nil {
		return nil, err
	}
	inst := spatial.NewInstance(schema)
	if len(features) > 0 {
		if err := inst.Set("P", region.Region{Features: features}); err != nil {
			return nil, err
		}
	}
	return inst, nil
}

func jaggedRect(cx, cy, w, h int64, jag int, rng *rand.Rand) geom.Polygon {
	var pts []geom.Point
	for k := int64(0); k < int64(jag); k++ {
		pts = append(pts, geom.Pt(cx-w/2+k*w/int64(jag), cy-h/2-int64(rng.Intn(5))))
	}
	for k := int64(0); k < int64(jag); k++ {
		pts = append(pts, geom.Pt(cx+w/2+int64(rng.Intn(5)), cy-h/2+k*h/int64(jag)))
	}
	for k := int64(0); k < int64(jag); k++ {
		pts = append(pts, geom.Pt(cx+w/2-k*w/int64(jag), cy+h/2+int64(rng.Intn(5))))
	}
	for k := int64(0); k < int64(jag); k++ {
		pts = append(pts, geom.Pt(cx-w/2-int64(rng.Intn(5)), cy+h/2-k*h/int64(jag)))
	}
	return geom.Polygon{Vertices: dedupe(pts)}
}

func dedupe(pts []geom.Point) []geom.Point {
	out := pts[:0]
	for _, p := range pts {
		if len(out) == 0 || !out[len(out)-1].Equal(p) {
			out = append(out, p)
		}
	}
	if len(out) > 1 && out[0].Equal(out[len(out)-1]) {
		out = out[:len(out)-1]
	}
	return out
}

func ratio(num, den int64) ratR { return ratNew(num, den) }
