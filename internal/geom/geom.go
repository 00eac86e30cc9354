// Package geom provides exact two-dimensional computational geometry over
// rational coordinates.
//
// It is the geometric substrate used to build the maximum topological cell
// decomposition of a spatial instance: orientation predicates, segment
// intersection, point location in polygons, and related utilities.  All
// predicates are exact (no epsilon tolerances) because the topology of the
// resulting invariant depends on their signs.
package geom

import (
	"fmt"
	"slices"

	"repro/internal/rat"
)

// Point is a point in the rational plane.
type Point struct {
	X, Y rat.R
}

// Pt is a convenience constructor from integer coordinates.
func Pt(x, y int64) Point { return Point{rat.FromInt(x), rat.FromInt(y)} }

// PtR constructs a point from rational coordinates.
func PtR(x, y rat.R) Point { return Point{x, y} }

// Equal reports whether p and q are the same point.
func (p Point) Equal(q Point) bool { return p.X.Equal(q.X) && p.Y.Equal(q.Y) }

// PointKey is a comparable map key for a point: two points have equal keys
// exactly when they are equal.
type PointKey struct{ X, Y rat.Key }

// Key returns the point's map key.
func (p Point) Key() PointKey { return PointKey{p.X.Key(), p.Y.Key()} }

// String renders the point as "(x, y)".
func (p Point) String() string { return fmt.Sprintf("(%s, %s)", p.X, p.Y) }

// Sub returns the vector p - q.
func (p Point) Sub(q Point) Point { return Point{p.X.Sub(q.X), p.Y.Sub(q.Y)} }

// Scale returns p with both coordinates multiplied by k.
func (p Point) Scale(k rat.R) Point { return Point{p.X.Mul(k), p.Y.Mul(k)} }

// Float returns a float64 approximation of the point (for rendering / stats).
// The approximation is non-monotone at |x| ≳ 2^53 — never feed it back into
// a geometric decision (the deleted PR 7 gridCandidatePairs did, and missed
// true intersections).
//
//lint:allow exactfloat(rendering/stats escape hatch; this method is the documented boundary out of exact arithmetic)
func (p Point) Float() (float64, float64) { return p.X.Float(), p.Y.Float() }

// CmpXY compares points lexicographically by (X, Y).
func CmpXY(p, q Point) int {
	if c := p.X.Cmp(q.X); c != 0 {
		return c
	}
	return p.Y.Cmp(q.Y)
}

// Mid returns the midpoint of p and q.
func Mid(p, q Point) Point { return Point{rat.Mid(p.X, q.X), rat.Mid(p.Y, q.Y)} }

// Orientation returns the sign of the cross product (b-a) x (c-a):
// +1 if a,b,c make a left (counterclockwise) turn, -1 for a right turn and 0
// if the three points are collinear.
func Orientation(a, b, c Point) int {
	// sign of (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
	return rat.CmpMulDiff(b.X, a.X, c.Y, a.Y, b.Y, a.Y, c.X, a.X)
}

// Collinear reports whether a, b and c lie on a common line.
func Collinear(a, b, c Point) bool { return Orientation(a, b, c) == 0 }

// Segment is a closed straight-line segment between two distinct points.
// Degenerate (zero-length) segments are not valid Segments; use Point
// features instead.
type Segment struct {
	A, B Point
}

// Seg constructs a segment.  It panics if the endpoints coincide.
func Seg(a, b Point) Segment {
	if a.Equal(b) {
		panic("geom: degenerate segment")
	}
	return Segment{a, b}
}

// String renders the segment.
func (s Segment) String() string { return s.A.String() + "-" + s.B.String() }

// Reverse returns the segment with its endpoints swapped.
func (s Segment) Reverse() Segment { return Segment{s.B, s.A} }

// Canonical returns the segment oriented so that A <= B lexicographically.
func (s Segment) Canonical() Segment {
	if CmpXY(s.A, s.B) > 0 {
		return s.Reverse()
	}
	return s
}

// SegmentKey is a comparable map key for a segment: the keys of its
// canonical endpoints, so both orientations share it.
type SegmentKey struct{ A, B PointKey }

// Key returns the segment's orientation-independent map key.
func (s Segment) Key() SegmentKey {
	c := s.Canonical()
	return SegmentKey{c.A.Key(), c.B.Key()}
}

// IsVertical reports whether the segment is vertical (both endpoints share
// one x coordinate).  Vertical segments have no y-at-x function and are
// handled out of band by sweep-line algorithms.
func (s Segment) IsVertical() bool { return s.A.X.Equal(s.B.X) }

// YAt returns the y coordinate of the segment's supporting line at x.
// It panics on vertical segments.
func (s Segment) YAt(x rat.R) rat.R {
	dx := s.B.X.Sub(s.A.X)
	if dx.Sign() == 0 {
		panic("geom: YAt of a vertical segment")
	}
	t := x.Sub(s.A.X).Div(dx)
	return s.A.Y.Add(t.Mul(s.B.Y.Sub(s.A.Y)))
}

// Box returns the bounding box of the segment.
func (s Segment) Box() Box {
	return Box{
		MinX: rat.Min(s.A.X, s.B.X), MaxX: rat.Max(s.A.X, s.B.X),
		MinY: rat.Min(s.A.Y, s.B.Y), MaxY: rat.Max(s.A.Y, s.B.Y),
	}
}

// ContainsPoint reports whether p lies on the closed segment s.
func (s Segment) ContainsPoint(p Point) bool {
	if Orientation(s.A, s.B, p) != 0 {
		return false
	}
	return s.Box().ContainsPoint(p)
}

// ContainsInterior reports whether p lies on s strictly between the endpoints.
func (s Segment) ContainsInterior(p Point) bool {
	return s.ContainsPoint(p) && !p.Equal(s.A) && !p.Equal(s.B)
}

// Box is an axis-aligned rectangle (possibly degenerate).
type Box struct {
	MinX, MaxX, MinY, MaxY rat.R
}

// NewBox returns the box spanned by the given extremes (arguments may be in
// any order).
func NewBox(x1, x2, y1, y2 rat.R) Box {
	return Box{MinX: rat.Min(x1, x2), MaxX: rat.Max(x1, x2), MinY: rat.Min(y1, y2), MaxY: rat.Max(y1, y2)}
}

// BoxAround returns the minimal box containing all the given points.
// It panics on an empty argument list.
func BoxAround(pts ...Point) Box {
	if len(pts) == 0 {
		panic("geom: BoxAround of no points")
	}
	b := Box{MinX: pts[0].X, MaxX: pts[0].X, MinY: pts[0].Y, MaxY: pts[0].Y}
	for _, p := range pts[1:] {
		b = b.ExtendPoint(p)
	}
	return b
}

// ContainsPoint reports whether p is inside or on the boundary of the box.
func (b Box) ContainsPoint(p Point) bool {
	return b.MinX.LessEq(p.X) && p.X.LessEq(b.MaxX) && b.MinY.LessEq(p.Y) && p.Y.LessEq(b.MaxY)
}

// Intersects reports whether the two closed boxes share at least one point.
func (b Box) Intersects(c Box) bool {
	if b.MaxX.Less(c.MinX) || c.MaxX.Less(b.MinX) {
		return false
	}
	if b.MaxY.Less(c.MinY) || c.MaxY.Less(b.MinY) {
		return false
	}
	return true
}

// ExtendPoint returns the smallest box containing b and p.
func (b Box) ExtendPoint(p Point) Box {
	return Box{
		MinX: rat.Min(b.MinX, p.X), MaxX: rat.Max(b.MaxX, p.X),
		MinY: rat.Min(b.MinY, p.Y), MaxY: rat.Max(b.MaxY, p.Y),
	}
}

// Center returns the center point of the box.
func (b Box) Center() Point { return Point{rat.Mid(b.MinX, b.MaxX), rat.Mid(b.MinY, b.MaxY)} }

// Width returns MaxX - MinX.
func (b Box) Width() rat.R { return b.MaxX.Sub(b.MinX) }

// Height returns MaxY - MinY.
func (b Box) Height() rat.R { return b.MaxY.Sub(b.MinY) }

// IntersectionKind classifies how two segments meet.
type IntersectionKind int

const (
	// NoIntersection: the segments are disjoint.
	NoIntersection IntersectionKind = iota
	// PointIntersection: the segments meet in exactly one point.
	PointIntersection
	// OverlapIntersection: the segments are collinear and share a
	// sub-segment of positive length.
	OverlapIntersection
)

// Intersection describes the intersection of two segments.
type Intersection struct {
	Kind IntersectionKind
	// P is the intersection point when Kind == PointIntersection.
	P Point
	// OverlapA, OverlapB are the endpoints of the shared sub-segment when
	// Kind == OverlapIntersection.
	OverlapA, OverlapB Point
}

// SegmentIntersection computes the exact intersection of two closed segments.
func SegmentIntersection(s, t Segment) Intersection {
	if !s.Box().Intersects(t.Box()) {
		return Intersection{Kind: NoIntersection}
	}
	d1 := Orientation(t.A, t.B, s.A)
	d2 := Orientation(t.A, t.B, s.B)
	d3 := Orientation(s.A, s.B, t.A)
	d4 := Orientation(s.A, s.B, t.B)

	if d1 == 0 && d2 == 0 && d3 == 0 && d4 == 0 {
		// Collinear: project onto the dominant axis and intersect intervals.
		return collinearOverlap(s, t)
	}
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) && ((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return Intersection{Kind: PointIntersection, P: lineIntersection(s, t)}
	}
	// Touching cases: an endpoint of one lies on the other.
	switch {
	case d1 == 0 && t.ContainsPoint(s.A):
		return Intersection{Kind: PointIntersection, P: s.A}
	case d2 == 0 && t.ContainsPoint(s.B):
		return Intersection{Kind: PointIntersection, P: s.B}
	case d3 == 0 && s.ContainsPoint(t.A):
		return Intersection{Kind: PointIntersection, P: t.A}
	case d4 == 0 && s.ContainsPoint(t.B):
		return Intersection{Kind: PointIntersection, P: t.B}
	}
	return Intersection{Kind: NoIntersection}
}

func collinearOverlap(s, t Segment) Intersection {
	// Intersect the two ranges along the line, ordered lexicographically.
	sLo, sHi := s.Canonical().A, s.Canonical().B
	tLo, tHi := t.Canonical().A, t.Canonical().B
	lo := sLo
	if CmpXY(tLo, lo) > 0 {
		lo = tLo
	}
	hi := sHi
	if CmpXY(tHi, hi) < 0 {
		hi = tHi
	}
	switch c := CmpXY(lo, hi); {
	case c > 0:
		return Intersection{Kind: NoIntersection}
	case c == 0:
		return Intersection{Kind: PointIntersection, P: lo}
	default:
		return Intersection{Kind: OverlapIntersection, OverlapA: lo, OverlapB: hi}
	}
}

// lineIntersection returns the intersection point of the supporting lines of
// s and t, assuming they properly cross.
func lineIntersection(s, t Segment) Point {
	// Solve s.A + u*(s.B - s.A) = t.A + v*(t.B - t.A).
	r := s.B.Sub(s.A)
	d := t.B.Sub(t.A)
	denom := r.X.Mul(d.Y).Sub(r.Y.Mul(d.X))
	if denom.Sign() == 0 {
		panic("geom: lineIntersection of parallel segments")
	}
	diff := t.A.Sub(s.A)
	u := diff.X.Mul(d.Y).Sub(diff.Y.Mul(d.X)).Div(denom)
	return Point{s.A.X.Add(u.Mul(r.X)), s.A.Y.Add(u.Mul(r.Y))}
}

// Polygon is a simple closed polygon given by its vertices in order (either
// orientation).  The closing edge from the last vertex back to the first is
// implicit.  Vertices must be distinct and non-collinear consecutive triples
// are not required (collinear vertices are tolerated).
type Polygon struct {
	Vertices []Point
}

// NewPolygon validates and constructs a polygon.  It requires at least three
// vertices and rejects repeated consecutive vertices.
func NewPolygon(vertices []Point) (Polygon, error) {
	if len(vertices) < 3 {
		return Polygon{}, fmt.Errorf("geom: polygon needs >= 3 vertices, got %d", len(vertices))
	}
	for i, v := range vertices {
		next := vertices[(i+1)%len(vertices)]
		if v.Equal(next) {
			return Polygon{}, fmt.Errorf("geom: repeated consecutive vertex %s at index %d", v, i)
		}
	}
	cp := make([]Point, len(vertices))
	copy(cp, vertices)
	return Polygon{Vertices: cp}, nil
}

// MustPolygon is NewPolygon that panics on error.
func MustPolygon(vertices ...Point) Polygon {
	p, err := NewPolygon(vertices)
	if err != nil {
		panic(err)
	}
	return p
}

// Rect returns the axis-aligned rectangle polygon with the given corners.
func Rect(minX, minY, maxX, maxY int64) Polygon {
	return MustPolygon(Pt(minX, minY), Pt(maxX, minY), Pt(maxX, maxY), Pt(minX, maxY))
}

// Edges returns the polygon's edges as segments in boundary order.
func (pg Polygon) Edges() []Segment {
	n := len(pg.Vertices)
	out := make([]Segment, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Segment{pg.Vertices[i], pg.Vertices[(i+1)%n]})
	}
	return out
}

// SignedArea2 returns twice the signed area of the polygon (positive for
// counterclockwise orientation).
func (pg Polygon) SignedArea2() rat.R {
	sum := rat.Zero
	n := len(pg.Vertices)
	for i := 0; i < n; i++ {
		a, b := pg.Vertices[i], pg.Vertices[(i+1)%n]
		sum = sum.Add(a.X.Mul(b.Y).Sub(b.X.Mul(a.Y)))
	}
	return sum
}

// Reverse returns the polygon with opposite orientation.
func (pg Polygon) Reverse() Polygon {
	n := len(pg.Vertices)
	out := make([]Point, n)
	for i, v := range pg.Vertices {
		out[n-1-i] = v
	}
	return Polygon{Vertices: out}
}

// IsSimple reports whether the polygon is simple: no two non-adjacent edges
// intersect, and adjacent edges meet only at their shared vertex.  A polygon
// with a zero-length edge (repeated consecutive vertices, which NewPolygon
// rejects but a literal can carry) is never simple: its boundary is not a
// Jordan curve, and before this check a fully collapsed ring like [a, a, a]
// slipped through because every degenerate edge pair "met at the shared
// vertex".
func (pg Polygon) IsSimple() bool {
	for i, v := range pg.Vertices {
		if v.Equal(pg.Vertices[(i+1)%len(pg.Vertices)]) {
			return false
		}
	}
	edges := pg.Edges()
	n := len(edges)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			adjacent := j == i+1 || (i == 0 && j == n-1)
			inter := SegmentIntersection(edges[i], edges[j])
			switch inter.Kind {
			case NoIntersection:
			case OverlapIntersection:
				return false
			case PointIntersection:
				if !adjacent {
					return false
				}
				// Adjacent edges must meet exactly at the shared vertex.
				shared := edges[i].B
				if i == 0 && j == n-1 {
					shared = edges[i].A
				}
				if !inter.P.Equal(shared) {
					return false
				}
			}
		}
	}
	return true
}

// PointLocation classifies the position of a point relative to a polygon.
type PointLocation int

const (
	// Outside: strictly outside the polygon.
	Outside PointLocation = iota
	// OnBoundary: on an edge or vertex of the polygon.
	OnBoundary
	// Inside: strictly inside the polygon.
	Inside
)

// Locate classifies p against the polygon using an exact ray-crossing test
// with a horizontal ray to the right.
func (pg Polygon) Locate(p Point) PointLocation {
	for _, e := range pg.Edges() {
		if e.ContainsPoint(p) {
			return OnBoundary
		}
	}
	crossings := 0
	n := len(pg.Vertices)
	for i := 0; i < n; i++ {
		lo, hi := pg.Vertices[i], pg.Vertices[(i+1)%n]
		if hi.Y.Less(lo.Y) {
			lo, hi = hi, lo
		}
		// Standard half-open rule: count the edge if it crosses the
		// horizontal line y = p.Y with lo.Y <= p.Y < hi.Y, and the crossing
		// is strictly to the right of p, that is, p lies strictly left of
		// the edge directed upward.
		if lo.Y.LessEq(p.Y) && p.Y.Less(hi.Y) && Orientation(lo, hi, p) > 0 {
			crossings++
		}
	}
	if crossings%2 == 1 {
		return Inside
	}
	return Outside
}

// Polyline is an open chain of straight segments; consecutive points must be
// distinct.
type Polyline struct {
	Points []Point
}

// NewPolyline validates and constructs a polyline with at least two points.
func NewPolyline(points []Point) (Polyline, error) {
	if len(points) < 2 {
		return Polyline{}, fmt.Errorf("geom: polyline needs >= 2 points, got %d", len(points))
	}
	for i := 0; i+1 < len(points); i++ {
		if points[i].Equal(points[i+1]) {
			return Polyline{}, fmt.Errorf("geom: repeated consecutive point %s at index %d", points[i], i)
		}
	}
	cp := make([]Point, len(points))
	copy(cp, points)
	return Polyline{Points: cp}, nil
}

// MustPolyline is NewPolyline that panics on error.
func MustPolyline(points ...Point) Polyline {
	pl, err := NewPolyline(points)
	if err != nil {
		panic(err)
	}
	return pl
}

// Segments returns the polyline's segments in order.
func (pl Polyline) Segments() []Segment {
	out := make([]Segment, 0, len(pl.Points)-1)
	for i := 0; i+1 < len(pl.Points); i++ {
		out = append(out, Segment{pl.Points[i], pl.Points[i+1]})
	}
	return out
}

// --- helpers ---------------------------------------------------------------

// SortPoints sorts points lexicographically by (X, Y) in place and removes
// duplicates, returning the deduplicated slice.
func SortPoints(pts []Point) []Point {
	slices.SortFunc(pts, CmpXY)
	out := pts[:0]
	for _, p := range pts {
		if len(out) == 0 || !out[len(out)-1].Equal(p) {
			out = append(out, p)
		}
	}
	return out
}
