package region

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/rat"
)

func TestFeatureValidation(t *testing.T) {
	if err := PointFeature(geom.Pt(1, 1)).Validate(); err != nil {
		t.Errorf("point feature invalid: %v", err)
	}
	if err := LineFeature(geom.MustPolyline(geom.Pt(0, 0), geom.Pt(1, 1))).Validate(); err != nil {
		t.Errorf("line feature invalid: %v", err)
	}
	if err := AreaFeature(geom.Rect(0, 0, 2, 2)).Validate(); err != nil {
		t.Errorf("area feature invalid: %v", err)
	}
	// Bowtie outer boundary is not simple.
	bowtie := geom.MustPolygon(geom.Pt(0, 0), geom.Pt(4, 4), geom.Pt(4, 0), geom.Pt(0, 4))
	if err := AreaFeature(bowtie).Validate(); err == nil {
		t.Error("bowtie outer boundary accepted")
	}
	// Hole outside the outer boundary.
	bad := AreaFeature(geom.Rect(0, 0, 2, 2), geom.Rect(5, 5, 6, 6))
	if err := bad.Validate(); err == nil {
		t.Error("hole outside outer boundary accepted")
	}
	// Valid hole.
	good := AreaFeature(geom.Rect(0, 0, 10, 10), geom.Rect(3, 3, 6, 6))
	if err := good.Validate(); err != nil {
		t.Errorf("valid annulus rejected: %v", err)
	}
}

func TestFeatureContains(t *testing.T) {
	pf := PointFeature(geom.Pt(1, 1))
	if !pf.Contains(geom.Pt(1, 1)) || pf.Contains(geom.Pt(1, 2)) {
		t.Error("point feature containment wrong")
	}
	if pf.ContainsInterior(geom.Pt(1, 1)) {
		t.Error("point feature has empty interior in the plane")
	}
	lf := LineFeature(geom.MustPolyline(geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 4)))
	if !lf.Contains(geom.Pt(2, 0)) || !lf.Contains(geom.Pt(4, 2)) || lf.Contains(geom.Pt(2, 2)) {
		t.Error("line feature containment wrong")
	}
	af := AreaFeature(geom.Rect(0, 0, 10, 10), geom.Rect(3, 3, 6, 6))
	if !af.Contains(geom.Pt(1, 1)) {
		t.Error("ring point should be contained")
	}
	if !af.Contains(geom.Pt(3, 3)) {
		t.Error("hole boundary belongs to the closed region")
	}
	if af.Contains(geom.Pt(4, 4)) {
		t.Error("hole interior should not be contained")
	}
	if !af.ContainsInterior(geom.Pt(1, 1)) || af.ContainsInterior(geom.Pt(0, 0)) || af.ContainsInterior(geom.Pt(3, 3)) {
		t.Error("area feature interior wrong")
	}
}

func TestFeatureCounts(t *testing.T) {
	af := AreaFeature(geom.Rect(0, 0, 10, 10), geom.Rect(3, 3, 6, 6))
	if af.PointCount() != 8 {
		t.Errorf("PointCount = %d, want 8", af.PointCount())
	}
	if len(af.BoundarySegments()) != 8 {
		t.Errorf("BoundarySegments = %d, want 8", len(af.BoundarySegments()))
	}
	lf := LineFeature(geom.MustPolyline(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 1)))
	if lf.PointCount() != 3 || len(lf.BoundarySegments()) != 2 {
		t.Error("line feature counts wrong")
	}
	pf := PointFeature(geom.Pt(0, 0))
	if pf.PointCount() != 1 || len(pf.BoundaryPoints()) != 1 {
		t.Error("point feature counts wrong")
	}
}

func TestRegionBasics(t *testing.T) {
	var empty Region
	if !empty.IsEmpty() {
		t.Error("zero region should be empty")
	}
	r := Must(
		AreaFeature(geom.Rect(0, 0, 4, 4)),
		PointFeature(geom.Pt(10, 10)),
	)
	if r.IsEmpty() {
		t.Error("nonempty region reported empty")
	}
	if !r.Contains(geom.Pt(2, 2)) || !r.Contains(geom.Pt(10, 10)) || r.Contains(geom.Pt(7, 7)) {
		t.Error("containment wrong")
	}
	if !r.ContainsInterior(geom.Pt(2, 2)) || r.ContainsInterior(geom.Pt(10, 10)) {
		t.Error("interior wrong")
	}
	if !r.OnBoundary(geom.Pt(0, 0)) || !r.OnBoundary(geom.Pt(10, 10)) || r.OnBoundary(geom.Pt(2, 2)) {
		t.Error("boundary wrong")
	}
	if r.PointCount() != 5 {
		t.Errorf("PointCount = %d, want 5", r.PointCount())
	}
	if r.MaxDimension() != Dim2 {
		t.Error("MaxDimension wrong")
	}
	if len(r.IsolatedPoints()) != 1 || len(r.BoundarySegments()) != 4 {
		t.Error("boundary decomposition wrong")
	}
}

func TestRegionConstructorsAndValidation(t *testing.T) {
	if _, err := New(AreaFeature(geom.MustPolygon(geom.Pt(0, 0), geom.Pt(4, 4), geom.Pt(4, 0), geom.Pt(0, 4)))); err == nil {
		t.Error("invalid feature accepted by New")
	}
	if err := Annulus(0, 0, 10, 10, 3).Validate(); err != nil {
		t.Errorf("Annulus invalid: %v", err)
	}
	if FromPoint(geom.Pt(1, 2)).MaxDimension() != Dim0 {
		t.Error("FromPoint wrong")
	}
	if FromPolyline(geom.MustPolyline(geom.Pt(0, 0), geom.Pt(1, 1))).MaxDimension() != Dim1 {
		t.Error("FromPolyline wrong")
	}
	if FromPolygonWithHoles(geom.Rect(0, 0, 8, 8), geom.Rect(2, 2, 4, 4)).PointCount() != 8 {
		t.Error("FromPolygonWithHoles wrong")
	}
}

func TestRegionTransforms(t *testing.T) {
	r := Must(
		AreaFeature(geom.Rect(0, 0, 4, 4), geom.Rect(1, 1, 2, 2)),
		LineFeature(geom.MustPolyline(geom.Pt(5, 5), geom.Pt(6, 6))),
		PointFeature(geom.Pt(7, 7)),
	)
	tr := r.Translate(rat.FromInt(10), rat.FromInt(-2))
	if !tr.Contains(geom.Pt(17, 5)) {
		t.Error("Translate wrong for point feature")
	}
	if !tr.ContainsInterior(geom.Pt(13, 1)) {
		t.Error("Translate wrong for area feature")
	}
	if tr.ContainsInterior(geom.PtR(rat.New(23, 2), rat.New(-1, 2))) {
		t.Error("Translate should preserve holes")
	}
	sc := r.Scale(rat.FromInt(2))
	if !sc.Contains(geom.Pt(14, 14)) || !sc.ContainsInterior(geom.Pt(7, 1)) {
		t.Error("Scale wrong")
	}
	rf := r.ReflectX()
	if !rf.Contains(geom.Pt(-7, 7)) || !rf.ContainsInterior(geom.Pt(-3, 3)) {
		t.Error("ReflectX wrong")
	}
	if r.PointCount() != tr.PointCount() || r.PointCount() != rf.PointCount() {
		t.Error("transforms should preserve point counts")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Scale(0) should panic")
		}
	}()
	r.Scale(rat.Zero)
}

func TestDimensionString(t *testing.T) {
	if Dim0.String() != "point" || Dim1.String() != "line" || Dim2.String() != "area" {
		t.Error("Dimension String wrong")
	}
}
