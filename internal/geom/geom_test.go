package geom

import (
	"testing"
	"testing/quick"

	"repro/internal/rat"
)

func TestOrientation(t *testing.T) {
	a, b := Pt(0, 0), Pt(4, 0)
	if Orientation(a, b, Pt(2, 3)) != 1 {
		t.Error("left turn not detected")
	}
	if Orientation(a, b, Pt(2, -3)) != -1 {
		t.Error("right turn not detected")
	}
	if Orientation(a, b, Pt(9, 0)) != 0 {
		t.Error("collinear not detected")
	}
	if !Collinear(Pt(1, 1), Pt(2, 2), Pt(5, 5)) {
		t.Error("Collinear false negative")
	}
	if Collinear(Pt(1, 1), Pt(2, 2), Pt(5, 6)) {
		t.Error("Collinear false positive")
	}
}

func TestPointBasics(t *testing.T) {
	p := Pt(3, -2)
	q := Pt(1, 5)
	if !p.Sub(q).Equal(Pt(2, -7)) {
		t.Error("Sub wrong")
	}
	if !p.Scale(rat.FromInt(2)).Equal(Pt(6, -4)) {
		t.Error("Scale wrong")
	}
	if !Mid(Pt(0, 0), Pt(2, 4)).Equal(Pt(1, 2)) {
		t.Error("Mid wrong")
	}
	if p.Key() == q.Key() {
		t.Error("distinct points share a key")
	}
	if CmpXY(Pt(1, 2), Pt(1, 3)) >= 0 || CmpXY(Pt(2, 0), Pt(1, 9)) <= 0 || CmpXY(p, p) != 0 {
		t.Error("CmpXY wrong")
	}
	x, y := Pt(1, 2).Float()
	if x != 1 || y != 2 {
		t.Error("Float wrong")
	}
}

func TestSegmentBasics(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(4, 4))
	if !s.ContainsPoint(Pt(2, 2)) {
		t.Error("point on segment not detected")
	}
	if s.ContainsPoint(Pt(5, 5)) {
		t.Error("point beyond endpoint accepted")
	}
	if s.ContainsPoint(Pt(2, 3)) {
		t.Error("off-segment point accepted")
	}
	if !s.ContainsInterior(Pt(1, 1)) || s.ContainsInterior(Pt(0, 0)) {
		t.Error("ContainsInterior wrong")
	}
	if s.Key() != s.Reverse().Key() {
		t.Error("Key should be orientation independent")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("degenerate segment should panic")
		}
	}()
	Seg(Pt(1, 1), Pt(1, 1))
}

func TestBoxOperations(t *testing.T) {
	b := NewBox(rat.FromInt(3), rat.FromInt(0), rat.FromInt(5), rat.FromInt(1))
	if !b.MinX.Equal(rat.Zero) || !b.MaxX.Equal(rat.FromInt(3)) {
		t.Error("NewBox did not normalise")
	}
	b1 := BoxAround(Pt(0, 0), Pt(2, 3))
	b2 := BoxAround(Pt(1, 1), Pt(5, 5))
	if !b1.Intersects(b2) {
		t.Error("overlapping boxes not detected")
	}
	b3 := BoxAround(Pt(10, 10), Pt(11, 11))
	if b1.Intersects(b3) {
		t.Error("disjoint boxes reported intersecting")
	}
	// Touching boxes intersect (closed boxes).
	b4 := BoxAround(Pt(2, 0), Pt(4, 3))
	if !b1.Intersects(b4) {
		t.Error("touching boxes should intersect")
	}
	if !b1.Center().Equal(PtR(rat.One, rat.New(3, 2))) {
		t.Errorf("Center = %v", b1.Center())
	}
	if !b1.Width().Equal(rat.FromInt(2)) || !b1.Height().Equal(rat.FromInt(3)) {
		t.Error("Width/Height wrong")
	}
	if !b1.ExtendPoint(Pt(-1, -1)).ContainsPoint(Pt(-1, -1)) {
		t.Error("ExtendPoint wrong")
	}
}

func TestSegmentIntersectionProperCross(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(4, 4))
	u := Seg(Pt(0, 4), Pt(4, 0))
	in := SegmentIntersection(s, u)
	if in.Kind != PointIntersection || !in.P.Equal(Pt(2, 2)) {
		t.Errorf("expected crossing at (2,2), got %+v", in)
	}
}

func TestSegmentIntersectionNonIntegerPoint(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(1, 1))
	u := Seg(Pt(0, 1), Pt(1, 0))
	in := SegmentIntersection(s, u)
	want := Point{rat.Half, rat.Half}
	if in.Kind != PointIntersection || !in.P.Equal(want) {
		t.Errorf("expected (1/2,1/2), got %+v", in)
	}
	// A crossing with a rational, non-half coordinate.
	s2 := Seg(Pt(0, 0), Pt(3, 1))
	u2 := Seg(Pt(0, 1), Pt(3, 0))
	in2 := SegmentIntersection(s2, u2)
	if in2.Kind != PointIntersection || !in2.P.Equal(Point{rat.New(3, 2), rat.Half}) {
		t.Errorf("expected (3/2,1/2), got %+v", in2)
	}
}

func TestSegmentIntersectionTouching(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(4, 0))
	u := Seg(Pt(2, 0), Pt(2, 5)) // T-junction
	in := SegmentIntersection(s, u)
	if in.Kind != PointIntersection || !in.P.Equal(Pt(2, 0)) {
		t.Errorf("T junction missed: %+v", in)
	}
	v := Seg(Pt(4, 0), Pt(8, 3)) // shared endpoint
	in2 := SegmentIntersection(s, v)
	if in2.Kind != PointIntersection || !in2.P.Equal(Pt(4, 0)) {
		t.Errorf("shared endpoint missed: %+v", in2)
	}
}

func TestSegmentIntersectionDisjoint(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(1, 0))
	u := Seg(Pt(3, 3), Pt(4, 4))
	if SegmentIntersection(s, u).Kind != NoIntersection {
		t.Error("disjoint segments reported intersecting")
	}
	// Parallel, non-collinear.
	v := Seg(Pt(0, 1), Pt(1, 1))
	if SegmentIntersection(s, v).Kind != NoIntersection {
		t.Error("parallel segments reported intersecting")
	}
	// Collinear but separated.
	w := Seg(Pt(5, 0), Pt(9, 0))
	if SegmentIntersection(s, w).Kind != NoIntersection {
		t.Error("collinear disjoint segments reported intersecting")
	}
	// Would cross if extended, but do not.
	x := Seg(Pt(0, 2), Pt(4, 3))
	y := Seg(Pt(0, 10), Pt(1, 4))
	if SegmentIntersection(x, y).Kind != NoIntersection {
		t.Error("non-crossing segments reported intersecting")
	}
}

func TestSegmentIntersectionCollinearOverlap(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(4, 0))
	u := Seg(Pt(2, 0), Pt(6, 0))
	in := SegmentIntersection(s, u)
	if in.Kind != OverlapIntersection {
		t.Fatalf("expected overlap, got %+v", in)
	}
	if !in.OverlapA.Equal(Pt(2, 0)) || !in.OverlapB.Equal(Pt(4, 0)) {
		t.Errorf("overlap endpoints wrong: %v %v", in.OverlapA, in.OverlapB)
	}
	// Collinear touching at a single point.
	v := Seg(Pt(4, 0), Pt(7, 0))
	in2 := SegmentIntersection(s, v)
	if in2.Kind != PointIntersection || !in2.P.Equal(Pt(4, 0)) {
		t.Errorf("collinear touch wrong: %+v", in2)
	}
	// Containment.
	w := Seg(Pt(1, 0), Pt(2, 0))
	in3 := SegmentIntersection(s, w)
	if in3.Kind != OverlapIntersection || !in3.OverlapA.Equal(Pt(1, 0)) || !in3.OverlapB.Equal(Pt(2, 0)) {
		t.Errorf("containment overlap wrong: %+v", in3)
	}
}

func TestSegmentIntersectionSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy int8) bool {
		a, b := Pt(int64(ax), int64(ay)), Pt(int64(bx), int64(by))
		c, d := Pt(int64(cx), int64(cy)), Pt(int64(dx), int64(dy))
		if a.Equal(b) || c.Equal(d) {
			return true
		}
		s, u := Seg(a, b), Seg(c, d)
		i1 := SegmentIntersection(s, u)
		i2 := SegmentIntersection(u, s)
		if i1.Kind != i2.Kind {
			return false
		}
		if i1.Kind == PointIntersection && !i1.P.Equal(i2.P) {
			return false
		}
		if i1.Kind == OverlapIntersection &&
			!(i1.OverlapA.Equal(i2.OverlapA) && i1.OverlapB.Equal(i2.OverlapB)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSegmentIntersectionPointOnBothSegments(t *testing.T) {
	// Property: if the result is a point, it lies on both segments.
	f := func(ax, ay, bx, by, cx, cy, dx, dy int8) bool {
		a, b := Pt(int64(ax), int64(ay)), Pt(int64(bx), int64(by))
		c, d := Pt(int64(cx), int64(cy)), Pt(int64(dx), int64(dy))
		if a.Equal(b) || c.Equal(d) {
			return true
		}
		s, u := Seg(a, b), Seg(c, d)
		in := SegmentIntersection(s, u)
		if in.Kind != PointIntersection {
			return true
		}
		return s.ContainsPoint(in.P) && u.ContainsPoint(in.P)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPolygonConstruction(t *testing.T) {
	if _, err := NewPolygon([]Point{Pt(0, 0), Pt(1, 0)}); err == nil {
		t.Error("two-vertex polygon accepted")
	}
	if _, err := NewPolygon([]Point{Pt(0, 0), Pt(0, 0), Pt(1, 1)}); err == nil {
		t.Error("repeated vertex accepted")
	}
	sq := Rect(0, 0, 4, 4)
	if len(sq.Vertices) != 4 {
		t.Fatal("Rect should have 4 vertices")
	}
	if !sq.IsSimple() {
		t.Error("rectangle should be simple")
	}
	if a := sq.SignedArea2(); !a.Equal(rat.FromInt(32)) {
		t.Errorf("twice the signed area = %v, want 32 (counterclockwise)", a)
	}
	if a := sq.Reverse().SignedArea2(); !a.Equal(rat.FromInt(-32)) {
		t.Errorf("reversed: twice the signed area = %v, want -32", a)
	}
	if len(sq.Edges()) != 4 {
		t.Error("Edges count wrong")
	}
}

func TestPolygonSimplicity(t *testing.T) {
	// Bowtie (self-intersecting).
	bowtie := MustPolygon(Pt(0, 0), Pt(4, 4), Pt(4, 0), Pt(0, 4))
	if bowtie.IsSimple() {
		t.Error("bowtie reported simple")
	}
	// Concave but simple.
	l := MustPolygon(Pt(0, 0), Pt(4, 0), Pt(4, 2), Pt(2, 2), Pt(2, 4), Pt(0, 4))
	if !l.IsSimple() {
		t.Error("L-shape should be simple")
	}
}

func TestPolygonLocate(t *testing.T) {
	sq := Rect(0, 0, 4, 4)
	cases := []struct {
		p    Point
		want PointLocation
	}{
		{Pt(2, 2), Inside},
		{Pt(0, 0), OnBoundary},
		{Pt(4, 2), OnBoundary},
		{Pt(2, 4), OnBoundary},
		{Pt(5, 2), Outside},
		{Pt(-1, -1), Outside},
		{Pt(2, 5), Outside},
	}
	for _, c := range cases {
		if got := sq.Locate(c.p); got != c.want {
			t.Errorf("Locate(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Concave polygon: the notch is outside.
	l := MustPolygon(Pt(0, 0), Pt(4, 0), Pt(4, 2), Pt(2, 2), Pt(2, 4), Pt(0, 4))
	if l.Locate(Pt(3, 3)) != Outside {
		t.Error("notch point should be outside the L-shape")
	}
	if l.Locate(Pt(1, 3)) != Inside {
		t.Error("point in the leg should be inside")
	}

	// A non-convex ring with horizontal edges (y = 0 and y = 3), in both
	// orientations, against the crossing rule computed by division: a grid
	// of half-integer points covers every vertex height and both
	// horizontal edges, and each edge gets points beside its midpoint.
	ring := MustPolygon(Pt(0, 0), Pt(10, 0), Pt(10, 3), Pt(7, 3), Pt(6, 6), Pt(4, 2), Pt(2, 6), Pt(0, 5))
	third := rat.New(1, 3)
	var pts []Point
	for x := int64(-2); x <= 22; x++ {
		for y := int64(-2); y <= 14; y++ {
			pts = append(pts, PtR(rat.New(x, 2), rat.New(y, 2)))
		}
	}
	for _, e := range ring.Edges() {
		m := Mid(e.A, e.B)
		pts = append(pts, m, PtR(m.X.Sub(third), m.Y), PtR(m.X.Add(third), m.Y),
			PtR(m.X, m.Y.Sub(third)), PtR(m.X, m.Y.Add(third)))
	}
	counts := map[PointLocation]int{}
	for _, pg := range []Polygon{ring, ring.Reverse()} {
		for _, p := range pts {
			got, want := pg.Locate(p), locateByDivision(pg, p)
			if got != want {
				t.Fatalf("Locate(%v) = %v, the division rule says %v", p, got, want)
			}
			counts[got]++
		}
	}
	if counts[Inside] == 0 || counts[Outside] == 0 || counts[OnBoundary] == 0 {
		t.Fatalf("point set misses a location class: %v", counts)
	}
	for _, c := range []struct {
		p    Point
		want PointLocation
	}{
		{Pt(5, 3), Inside},     // at a horizontal edge's height, left of it
		{Pt(8, 3), OnBoundary}, // on the horizontal edge
		{Pt(11, 3), Outside},   // at its height, right of the ring
		{Pt(4, 4), Outside},    // in the notch, at the height of no vertex
		{Pt(3, 2), Inside},     // at the notch vertex's height
		{Pt(-1, 5), Outside},   // at a vertex height, left of the ring
	} {
		if got := ring.Locate(c.p); got != c.want {
			t.Errorf("Locate(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// locateByDivision is Locate's half-open ray-crossing rule with the
// crossing's x computed explicitly, a.X + (p.Y-a.Y)·(b.X-a.X)/(b.Y-a.Y),
// as the reference the orientation test must agree with.
func locateByDivision(pg Polygon, p Point) PointLocation {
	for _, e := range pg.Edges() {
		if e.ContainsPoint(p) {
			return OnBoundary
		}
	}
	crossings := 0
	n := len(pg.Vertices)
	for i := 0; i < n; i++ {
		a, b := pg.Vertices[i], pg.Vertices[(i+1)%n]
		if (a.Y.LessEq(p.Y) && p.Y.Less(b.Y)) || (b.Y.LessEq(p.Y) && p.Y.Less(a.Y)) {
			t := p.Y.Sub(a.Y).Div(b.Y.Sub(a.Y))
			if p.X.Less(a.X.Add(t.Mul(b.X.Sub(a.X)))) {
				crossings++
			}
		}
	}
	if crossings%2 == 1 {
		return Inside
	}
	return Outside
}

func TestPolyline(t *testing.T) {
	if _, err := NewPolyline([]Point{Pt(0, 0)}); err == nil {
		t.Error("single-point polyline accepted")
	}
	if _, err := NewPolyline([]Point{Pt(0, 0), Pt(0, 0)}); err == nil {
		t.Error("repeated point accepted")
	}
	pl := MustPolyline(Pt(0, 0), Pt(2, 0), Pt(2, 3))
	if len(pl.Segments()) != 2 {
		t.Error("Segments count wrong")
	}
}

func TestSortPoints(t *testing.T) {
	pts := []Point{Pt(2, 2), Pt(0, 0), Pt(2, 2), Pt(1, 5), Pt(0, 0)}
	out := SortPoints(pts)
	if len(out) != 3 {
		t.Fatalf("SortPoints kept %d points, want 3", len(out))
	}
	if !out[0].Equal(Pt(0, 0)) || !out[2].Equal(Pt(2, 2)) {
		t.Error("SortPoints order wrong")
	}
}

func BenchmarkSegmentIntersection(b *testing.B) {
	s := Seg(Pt(0, 0), Pt(100, 73))
	u := Seg(Pt(0, 73), Pt(100, 0))
	for i := 0; i < b.N; i++ {
		_ = SegmentIntersection(s, u)
	}
}

func BenchmarkPolygonLocate(b *testing.B) {
	pg := MustPolygon(Pt(0, 0), Pt(10, 0), Pt(10, 10), Pt(5, 5), Pt(0, 10))
	p := Pt(3, 3)
	for i := 0; i < b.N; i++ {
		_ = pg.Locate(p)
	}
}

func TestSweepComparators(t *testing.T) {
	x := rat.FromInt(2)
	flat := Segment{Pt(0, 1), Pt(4, 1)}   // y(2) = 1
	rising := Segment{Pt(0, 0), Pt(4, 4)} // y(2) = 2
	vertical := Segment{Pt(2, 0), Pt(2, 4)}

	if !vertical.IsVertical() || flat.IsVertical() {
		t.Error("IsVertical wrong")
	}
	if got := rising.YAt(x); !got.Equal(rat.FromInt(2)) {
		t.Errorf("YAt = %s, want 2", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("YAt of a vertical segment did not panic")
			}
		}()
		vertical.YAt(x)
	}()
}
