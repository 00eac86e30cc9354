// Package geojson imports user-supplied GeoJSON (RFC 7946) geometries into
// spatial database instances, so that arbitrary external coordinate data —
// not just the built-in workload generators — flows through invariant
// computation, persistence and querying.
//
// The affine-invariant line of work on spatial queries (Haesevoets &
// Kuijpers; see PAPERS.md) motivates the design: what the engine stores and
// queries is the topology of the data, not its embedding, so the importer's
// only obligations are (a) to land every coordinate on an exact rational
// point and (b) to reject inputs whose topology is ill-defined.
//
// Coordinates.  GeoJSON positions are IEEE floats; exact geometry needs
// rationals.  Every coordinate is snapped to a fixed decimal grid
// (DefaultPrecision digits, configurable): x ↦ round(x·10^p)/10^p.  Snapping
// keeps denominators tiny (the alternative — exact binary-float rationals —
// drags 2^52 denominators through every orientation test) and collapses
// float noise below the grid onto one point.  Consecutive duplicate points
// produced by the collapse are merged; geometries that degenerate entirely
// (a ring with fewer than three distinct vertices, a line with fewer than
// two) are rejected, as are non-simple rings and holes that stray outside
// their polygon, by the one validation pass spatial.Instance.Set runs on
// every region Import stores.
//
// Mapping.  Features are grouped into regions by a feature property
// (DefaultNameProperty, configurable); features without it share one default
// region.  Polygon → area feature (holes preserved), MultiPolygon → one area
// feature per polygon, LineString/MultiLineString → curve features,
// Point/MultiPoint → point features, GeometryCollection → its members.  The
// schema lists regions in first-appearance order, matching the codec's
// deterministic enumeration.
package geojson

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/rat"
	"repro/internal/region"
	"repro/internal/spatial"
)

const (
	// DefaultPrecision is the default snapping grid: 7 decimal digits,
	// about a centimetre in geographic degrees.
	DefaultPrecision = 7
	// MaxPrecision bounds the grid so scaled coordinates stay well inside
	// int64 (10^12 leaves six integer digits of headroom).
	MaxPrecision = 12
	// DefaultNameProperty is the feature property used as the region name.
	DefaultNameProperty = "name"
	// DefaultRegionName groups features that carry no name property.
	DefaultRegionName = "geom"

	// maxGeometryDepth bounds GeometryCollection nesting.
	maxGeometryDepth = 4

	// MaxRingVertices bounds one ring or line.  Ring simplicity and hole
	// containment are checked by the Bentley–Ottmann sweep in
	// internal/sweep — O((n+k) log n) with exact rational event ordering —
	// so the budget is two orders of magnitude above the old quadratic
	// checker's 1,000.  Measured (BenchmarkImportValidation, Xeon 2.1GHz):
	// the sweep validates a 1k-vertex ring in 3.8ms, 10k in 41ms and 100k
	// in 0.45s, where the quadratic scan needed 72ms at 1k, 7.4s at 10k
	// and (extrapolating n²) ≈3 minutes at 50k.  Real cartographic rings
	// run tens to hundreds of vertices (the paper's datasets average ~80
	// per polygon); this admits shapefile-scale coastlines and commune
	// boundaries.
	MaxRingVertices = 100000
	// MaxPolygonPositions bounds one polygon including all its holes.  The
	// sweep validates outer + holes in one pass, and hole containment is a
	// per-hole O(log n) parity query inside that pass, so the bound scales
	// with MaxRingVertices (a maximally adversarial polygon costs roughly
	// one 120k-segment sweep, well under a second).
	MaxPolygonPositions = 120000
	// MaxDocumentPositions bounds the total positions in one document,
	// capping the number of worst-case polygons a single upload can carry
	// (~25 maximal polygons ≈ a dozen seconds of validation, against
	// unbounded minutes before the sweep).
	MaxDocumentPositions = 3000000
)

// Option configures Import.
type Option func(*config)

type config struct {
	precision    int
	nameProperty string
	defaultName  string
}

// WithPrecision sets the decimal snapping grid (digits after the point).
// Values are clamped to [0, MaxPrecision].
func WithPrecision(digits int) Option {
	return func(c *config) {
		if digits < 0 {
			digits = 0
		}
		if digits > MaxPrecision {
			digits = MaxPrecision
		}
		c.precision = digits
	}
}

// WithNameProperty sets which feature property names the region a feature
// belongs to.
func WithNameProperty(prop string) Option {
	return func(c *config) {
		if prop != "" {
			c.nameProperty = prop
		}
	}
}

// WithDefaultName sets the region name for features without a name property.
func WithDefaultName(name string) Option {
	return func(c *config) {
		if name != "" {
			c.defaultName = name
		}
	}
}

// geoObject is the superset of the GeoJSON object shapes we accept.
type geoObject struct {
	Type        string            `json:"type"`
	Features    []json.RawMessage `json:"features"`
	Geometry    *geoObject        `json:"geometry"`
	Geometries  []geoObject       `json:"geometries"`
	Properties  map[string]any    `json:"properties"`
	Coordinates json.RawMessage   `json:"coordinates"`
}

// Import parses a GeoJSON document — a FeatureCollection, a single Feature
// or a bare geometry — into a spatial database instance.
func Import(data []byte, opts ...Option) (*spatial.Instance, error) {
	cfg := config{
		precision:    DefaultPrecision,
		nameProperty: DefaultNameProperty,
		defaultName:  DefaultRegionName,
	}
	for _, o := range opts {
		o(&cfg)
	}
	var root geoObject
	if err := json.Unmarshal(data, &root); err != nil {
		return nil, fmt.Errorf("geojson: %w", err)
	}
	imp := &importer{cfg: cfg, features: make(map[string][]region.Feature)}
	switch root.Type {
	case "FeatureCollection":
		for i, raw := range root.Features {
			var f geoObject
			if err := json.Unmarshal(raw, &f); err != nil {
				return nil, fmt.Errorf("geojson: feature %d: %w", i, err)
			}
			if err := imp.feature(&f, i); err != nil {
				return nil, err
			}
		}
	case "Feature":
		if err := imp.feature(&root, 0); err != nil {
			return nil, err
		}
	case "":
		return nil, fmt.Errorf("geojson: missing \"type\" member")
	default:
		// A bare geometry document.
		if err := imp.geometry(&root, cfg.defaultName, 0, 0); err != nil {
			return nil, err
		}
	}
	if len(imp.order) == 0 {
		return nil, fmt.Errorf("geojson: no geometries in document")
	}
	schema, err := spatial.NewSchema(imp.order...)
	if err != nil {
		return nil, fmt.Errorf("geojson: %w", err)
	}
	inst := spatial.NewInstance(schema)
	for _, name := range imp.order {
		if err := inst.Set(name, region.Region{Features: imp.features[name]}); err != nil {
			return nil, fmt.Errorf("geojson: %w", err)
		}
	}
	return inst, nil
}

type importer struct {
	cfg       config
	order     []string // region names in first-appearance order
	features  map[string][]region.Feature
	positions int // running total, capped by MaxDocumentPositions
}

// countPositions charges n positions against the document budget.
func (imp *importer) countPositions(n int) error {
	imp.positions += n
	if imp.positions > MaxDocumentPositions {
		return fmt.Errorf("document exceeds %d positions", MaxDocumentPositions)
	}
	return nil
}

func (imp *importer) feature(f *geoObject, idx int) error {
	if f.Type != "Feature" {
		return fmt.Errorf("geojson: feature %d: type %q, want \"Feature\"", idx, f.Type)
	}
	if f.Geometry == nil {
		// RFC 7946 allows unlocated features; they contribute nothing.
		return nil
	}
	name := imp.cfg.defaultName
	if v, ok := f.Properties[imp.cfg.nameProperty]; ok {
		s, ok := v.(string)
		if !ok || s == "" {
			return fmt.Errorf("geojson: feature %d: property %q must be a non-empty string", idx, imp.cfg.nameProperty)
		}
		name = s
	}
	return imp.geometry(f.Geometry, name, idx, 0)
}

func (imp *importer) add(name string, fs ...region.Feature) {
	if _, ok := imp.features[name]; !ok {
		imp.order = append(imp.order, name)
	}
	imp.features[name] = append(imp.features[name], fs...)
}

func (imp *importer) geometry(g *geoObject, name string, idx, depth int) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("geojson: feature %d: %s", idx, fmt.Sprintf(format, args...))
	}
	switch g.Type {
	case "Point":
		var pos []*float64
		if err := json.Unmarshal(g.Coordinates, &pos); err != nil {
			return fail("Point coordinates: %v", err)
		}
		if err := imp.countPositions(1); err != nil {
			return fail("%v", err)
		}
		p, err := imp.point(pos)
		if err != nil {
			return fail("%v", err)
		}
		imp.add(name, region.PointFeature(p))
	case "MultiPoint":
		var coords [][]*float64
		if err := json.Unmarshal(g.Coordinates, &coords); err != nil {
			return fail("MultiPoint coordinates: %v", err)
		}
		if err := imp.countPositions(len(coords)); err != nil {
			return fail("%v", err)
		}
		for _, pos := range coords {
			p, err := imp.point(pos)
			if err != nil {
				return fail("%v", err)
			}
			imp.add(name, region.PointFeature(p))
		}
	case "LineString":
		var coords [][]*float64
		if err := json.Unmarshal(g.Coordinates, &coords); err != nil {
			return fail("LineString coordinates: %v", err)
		}
		f, err := imp.lineString(coords)
		if err != nil {
			return fail("%v", err)
		}
		imp.add(name, f)
	case "MultiLineString":
		var coords [][][]*float64
		if err := json.Unmarshal(g.Coordinates, &coords); err != nil {
			return fail("MultiLineString coordinates: %v", err)
		}
		for i, line := range coords {
			f, err := imp.lineString(line)
			if err != nil {
				return fail("line %d: %v", i, err)
			}
			imp.add(name, f)
		}
	case "Polygon":
		var coords [][][]*float64
		if err := json.Unmarshal(g.Coordinates, &coords); err != nil {
			return fail("Polygon coordinates: %v", err)
		}
		f, err := imp.polygon(coords)
		if err != nil {
			return fail("%v", err)
		}
		imp.add(name, f)
	case "MultiPolygon":
		var coords [][][][]*float64
		if err := json.Unmarshal(g.Coordinates, &coords); err != nil {
			return fail("MultiPolygon coordinates: %v", err)
		}
		for i, poly := range coords {
			f, err := imp.polygon(poly)
			if err != nil {
				return fail("polygon %d: %v", i, err)
			}
			imp.add(name, f)
		}
	case "GeometryCollection":
		if depth >= maxGeometryDepth {
			return fail("GeometryCollection nested deeper than %d", maxGeometryDepth)
		}
		for i := range g.Geometries {
			if err := imp.geometry(&g.Geometries[i], name, idx, depth+1); err != nil {
				return fmt.Errorf("%w (collection member %d)", err, i)
			}
		}
	case "":
		return fail("geometry missing \"type\" member")
	default:
		return fail("unsupported geometry type %q", g.Type)
	}
	return nil
}

// point snaps one GeoJSON position to the rational grid.  Positions are
// parsed as *float64 so a JSON null is caught here instead of silently
// decoding to coordinate 0.
func (imp *importer) point(pos []*float64) (geom.Point, error) {
	if len(pos) < 2 {
		return geom.Point{}, fmt.Errorf("position needs at least 2 coordinates, got %d", len(pos))
	}
	if pos[0] == nil || pos[1] == nil {
		return geom.Point{}, fmt.Errorf("null coordinate in position")
	}
	// Extra members (altitude) are ignored per RFC 7946.
	x, err := imp.snap(*pos[0])
	if err != nil {
		return geom.Point{}, err
	}
	y, err := imp.snap(*pos[1])
	if err != nil {
		return geom.Point{}, err
	}
	return geom.PtR(x, y), nil
}

// snap rounds a float coordinate onto the decimal grid 1/10^precision and
// returns it as an exact rational.
func (imp *importer) snap(x float64) (rat.R, error) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return rat.Zero, fmt.Errorf("coordinate %v is not finite", x)
	}
	scale := int64(1)
	for i := 0; i < imp.cfg.precision; i++ {
		scale *= 10
	}
	v := math.Round(x * float64(scale))
	// Stay well inside int64 so downstream exact arithmetic keeps its
	// fast path; ±2^53 is also where float64 stops representing integers
	// exactly, so larger inputs could not round-trip anyway.
	const limit = 1 << 53
	if v > limit || v < -limit {
		return rat.Zero, fmt.Errorf("coordinate %g out of range at precision %d", x, imp.cfg.precision)
	}
	return rat.New(int64(v), scale), nil
}

// snapPoints converts a coordinate array, merging consecutive points that
// collapse onto the same grid point.
func (imp *importer) snapPoints(coords [][]*float64) ([]geom.Point, error) {
	if len(coords) > MaxRingVertices {
		return nil, fmt.Errorf("ring/line with %d positions exceeds the %d limit", len(coords), MaxRingVertices)
	}
	if err := imp.countPositions(len(coords)); err != nil {
		return nil, err
	}
	pts := make([]geom.Point, 0, len(coords))
	for i, pos := range coords {
		p, err := imp.point(pos)
		if err != nil {
			return nil, fmt.Errorf("position %d: %w", i, err)
		}
		if len(pts) > 0 && pts[len(pts)-1].Equal(p) {
			continue
		}
		pts = append(pts, p)
	}
	return pts, nil
}

func (imp *importer) lineString(coords [][]*float64) (region.Feature, error) {
	if len(coords) < 2 {
		return region.Feature{}, fmt.Errorf("LineString needs at least 2 positions, got %d", len(coords))
	}
	pts, err := imp.snapPoints(coords)
	if err != nil {
		return region.Feature{}, err
	}
	if len(pts) < 2 {
		return region.Feature{}, fmt.Errorf("degenerate LineString: all %d positions snap to one point", len(coords))
	}
	pl, err := geom.NewPolyline(pts)
	if err != nil {
		return region.Feature{}, err
	}
	return region.LineFeature(pl), nil
}

// ring converts one GeoJSON linear ring (closed: first position equals the
// last) into an open polygon vertex list, rejecting degenerate results.
func (imp *importer) ring(coords [][]*float64) (geom.Polygon, error) {
	if len(coords) < 4 {
		return geom.Polygon{}, fmt.Errorf("linear ring needs at least 4 positions, got %d", len(coords))
	}
	first, err := imp.point(coords[0])
	if err != nil {
		return geom.Polygon{}, fmt.Errorf("position 0: %w", err)
	}
	last, err := imp.point(coords[len(coords)-1])
	if err != nil {
		return geom.Polygon{}, fmt.Errorf("position %d: %w", len(coords)-1, err)
	}
	if !first.Equal(last) {
		return geom.Polygon{}, fmt.Errorf("linear ring is not closed (first %s != last %s)", first, last)
	}
	pts, err := imp.snapPoints(coords[:len(coords)-1])
	if err != nil {
		return geom.Polygon{}, err
	}
	// The closing position was dropped above, but snapping can still fold
	// the (distinct) first and last interior points together.
	if len(pts) > 1 && pts[0].Equal(pts[len(pts)-1]) {
		pts = pts[:len(pts)-1]
	}
	if len(pts) < 3 {
		return geom.Polygon{}, fmt.Errorf("degenerate ring: %d distinct vertices after snapping", len(pts))
	}
	pg, err := geom.NewPolygon(pts)
	if err != nil {
		return geom.Polygon{}, err
	}
	if pg.SignedArea2().Sign() == 0 {
		return geom.Polygon{}, fmt.Errorf("degenerate ring: zero area")
	}
	// Ring simplicity is checked by spatial.Instance.Set's validation when
	// Import assembles the instance (via the sweep-line checker) — running it
	// here too would double the worst-case cost the vertex limits are
	// tuned for.
	return pg, nil
}

func (imp *importer) polygon(coords [][][]*float64) (region.Feature, error) {
	if len(coords) == 0 {
		return region.Feature{}, fmt.Errorf("Polygon needs at least an outer ring")
	}
	total := 0
	for _, ring := range coords {
		total += len(ring)
	}
	if total > MaxPolygonPositions {
		return region.Feature{}, fmt.Errorf("polygon with %d positions across %d rings exceeds the %d limit", total, len(coords), MaxPolygonPositions)
	}
	outer, err := imp.ring(coords[0])
	if err != nil {
		return region.Feature{}, fmt.Errorf("outer ring: %w", err)
	}
	// nil (not an empty slice) for hole-free polygons, matching the region
	// constructors and the codec decoder, so imported instances round-trip
	// deeply equal through Decode(Encode(x)).
	var holes []geom.Polygon
	for i, hc := range coords[1:] {
		h, err := imp.ring(hc)
		if err != nil {
			return region.Feature{}, fmt.Errorf("hole %d: %w", i, err)
		}
		holes = append(holes, h)
	}
	// Ring topology — simplicity of every ring and strict hole containment
	// (a hole must sit strictly inside the outer ring and strictly outside
	// every other hole; sharing even a single boundary point is rejected,
	// see internal/sweep's pinned semantics) — is enforced by
	// spatial.Instance.Set's validation when Import assembles the instance.
	// That validation runs the Bentley–Ottmann sweep: one O((n+k) log n) pass
	// over all the polygon's edges detects every forbidden intersection,
	// including hole edges escaping through concave notches (by the Jordan
	// curve theorem an escaping edge must cross the outer boundary), and a
	// per-hole parity query settles containment without pairwise tests.
	return region.AreaFeature(outer, holes...), nil
}
