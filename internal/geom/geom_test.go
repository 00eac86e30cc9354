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
	if !p.Add(q).Equal(Pt(4, 3)) {
		t.Error("Add wrong")
	}
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
	if !s.Midpoint().Equal(Pt(2, 2)) {
		t.Error("Midpoint wrong")
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
	u := b1.Union(b3)
	if !u.ContainsPoint(Pt(0, 0)) || !u.ContainsPoint(Pt(11, 11)) {
		t.Error("Union wrong")
	}
	if !b1.Center().Equal(Pt(1, 1).Add(Point{rat.Zero, rat.Half})) {
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
	if !sq.Area().Equal(rat.FromInt(16)) {
		t.Errorf("area = %v, want 16", sq.Area())
	}
	if !sq.IsCCW() {
		t.Error("Rect should be CCW")
	}
	if sq.Reverse().IsCCW() {
		t.Error("Reverse should flip orientation")
	}
	if !sq.Reverse().CCW().IsCCW() {
		t.Error("CCW should restore orientation")
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
	if !sq.Contains(Pt(1, 1)) || sq.Contains(Pt(9, 9)) {
		t.Error("Contains wrong")
	}
	// Concave polygon: the notch is outside.
	l := MustPolygon(Pt(0, 0), Pt(4, 0), Pt(4, 2), Pt(2, 2), Pt(2, 4), Pt(0, 4))
	if l.Locate(Pt(3, 3)) != Outside {
		t.Error("notch point should be outside the L-shape")
	}
	if l.Locate(Pt(1, 3)) != Inside {
		t.Error("point in the leg should be inside")
	}
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
	b := pl.Box()
	if !b.ContainsPoint(Pt(2, 3)) || !b.ContainsPoint(Pt(0, 0)) {
		t.Error("Box wrong")
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
	flat := Segment{Pt(0, 1), Pt(4, 1)}    // y(2) = 1
	rising := Segment{Pt(0, 0), Pt(4, 4)}  // y(2) = 2
	falling := Segment{Pt(0, 4), Pt(4, 0)} // y(2) = 2
	vertical := Segment{Pt(2, 0), Pt(2, 4)}

	if !vertical.IsVertical() || flat.IsVertical() {
		t.Error("IsVertical wrong")
	}
	if got := rising.YAt(x); !got.Equal(rat.FromInt(2)) {
		t.Errorf("YAt = %s, want 2", got)
	}
	if c := CmpYAt(flat, rising, x); c != -1 {
		t.Errorf("CmpYAt(flat, rising) = %d, want -1", c)
	}
	if c := CmpYAt(rising, falling, x); c != 0 {
		t.Errorf("CmpYAt at the crossing = %d, want 0", c)
	}
	// Reversed-orientation segments compare identically (canonicalised).
	if c := CmpYAt(rising.Reverse(), falling, x); c != 0 {
		t.Errorf("CmpYAt with reversed operand = %d, want 0", c)
	}
	if c := CmpSlope(falling, rising); c != -1 {
		t.Errorf("CmpSlope(falling, rising) = %d, want -1", c)
	}
	if c := CmpSlope(rising, rising.Reverse()); c != 0 {
		t.Errorf("CmpSlope of reversed self = %d, want 0", c)
	}
	// CmpPointSeg: below / on / above the supporting line.
	if c := CmpPointSeg(Pt(2, 0), rising); c != -1 {
		t.Errorf("CmpPointSeg below = %d, want -1", c)
	}
	if c := CmpPointSeg(Pt(2, 2), rising); c != 0 {
		t.Errorf("CmpPointSeg on = %d, want 0", c)
	}
	if c := CmpPointSeg(Pt(2, 3), rising); c != 1 {
		t.Errorf("CmpPointSeg above = %d, want 1", c)
	}
	// The supporting line extends beyond the segment.
	if c := CmpPointSeg(Pt(10, 10), rising); c != 0 {
		t.Errorf("CmpPointSeg on the extension = %d, want 0", c)
	}
	// Rational coordinates: y of rising at x=1/2 is 1/2.
	if c := CmpPointSeg(PtR(rat.New(1, 2), rat.New(1, 2)), rising); c != 0 {
		t.Errorf("CmpPointSeg at rational point = %d, want 0", c)
	}
	for _, f := range []func(){
		func() { vertical.YAt(x) },
		func() { CmpYAt(vertical, flat, x) },
		func() { CmpPointSeg(Pt(0, 0), vertical) },
		func() { CmpSlope(vertical, flat) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("vertical-segment comparator did not panic")
				}
			}()
			f()
		}()
	}
}
