package simindex

import (
	"math"
	"testing"

	"repro/internal/invariant"
	"repro/internal/region"
	"repro/internal/spatial"
)

func mustInv(t *testing.T, inst *spatial.Instance) *invariant.Invariant {
	t.Helper()
	inv, err := invariant.Compute(inst)
	if err != nil {
		t.Fatalf("invariant: %v", err)
	}
	return inv
}

func annulusRect(t *testing.T, offset int64) *invariant.Invariant {
	t.Helper()
	return mustInv(t, spatial.MustBuild(spatial.MustSchema("P", "Q"), map[string]region.Region{
		"P": region.Annulus(offset, 0, offset+30, 30, 3),
		"Q": region.Rect(offset+10, 10, offset+20, 20),
	}))
}

func TestFeaturesDeterministic(t *testing.T) {
	inv := annulusRect(t, 0)
	a, b := Features(inv), Features(inv)
	if a != b {
		t.Fatalf("two extractions of the same invariant differ:\n%v\n%v", a, b)
	}
	// Recompute from a freshly built identical instance too.
	c := Features(annulusRect(t, 0))
	if a != c {
		t.Fatalf("extraction from a rebuilt identical instance differs:\n%v\n%v", a, c)
	}
}

func TestFeaturesTranslationInvariant(t *testing.T) {
	a := Features(annulusRect(t, 0))
	b := Features(annulusRect(t, 500))
	if a != b {
		t.Fatalf("translated instance has a different feature vector:\n%v\n%v", a, b)
	}
}

func TestFeaturesFinite(t *testing.T) {
	v := Features(annulusRect(t, 0))
	for i, c := range v {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			t.Fatalf("coordinate %d is %v", i, c)
		}
	}
}

func TestFeaturesHistogramsSumToOne(t *testing.T) {
	// Overlapping rectangles, so the arrangement has vertices (the annulus
	// fixture is all free loops: its vertex histogram is legitimately
	// empty).
	v := Features(mustInv(t, spatial.MustBuild(spatial.MustSchema("P", "Q"), map[string]region.Region{
		"P": region.Rect(0, 0, 4, 4),
		"Q": region.Rect(2, 2, 6, 6),
	})))
	sum := func(lo, hi int) float64 {
		s := 0.0
		for i := lo; i <= hi; i++ {
			s += v[i]
		}
		return s
	}
	for _, h := range []struct {
		name   string
		lo, hi int
	}{
		{"vertex-degree", featDeg0, featDeg5plus},
		{"face-degree", featFaceDeg1, featFaceDeg5plus},
	} {
		if s := sum(h.lo, h.hi); math.Abs(s-1) > 1e-9 {
			t.Errorf("%s histogram sums to %v, want 1", h.name, s)
		}
	}
}

func TestDistanceMetricProperties(t *testing.T) {
	a := Features(annulusRect(t, 0))
	b := Features(mustInv(t, spatial.MustBuild(spatial.MustSchema("P"), map[string]region.Region{
		"P": region.Rect(0, 0, 10, 10),
	})))
	if d := Distance(a, a); d != 0 {
		t.Fatalf("Distance(a,a) = %v, want 0", d)
	}
	if Distance(a, b) != Distance(b, a) {
		t.Fatal("distance is not symmetric")
	}
	if Distance(a, b) <= 0 {
		t.Fatal("distinct topologies should have positive distance")
	}
}

// TestDistanceDilationTolerance pins the motivation for the log1p + L∞
// construction: uniformly growing an instance (more nesting levels) moves
// it a bounded distance per step, while the distance still separates a
// mildly grown instance from a radically different topology.
func TestDistanceDilationTolerance(t *testing.T) {
	nested := func(levels int64) Vector {
		regions := map[string]region.Region{}
		// Concentric annuli under one region name: levels-deep nesting.
		var feats []region.Feature
		for i := int64(0); i < levels; i++ {
			feats = append(feats, region.Annulus(-10*i, -10*i, 100+10*i, 100+10*i, 2).Features...)
		}
		regions["P"] = region.Must(feats...)
		return Features(mustInv(t, spatial.MustBuild(spatial.MustSchema("P"), regions)))
	}
	v2, v3 := nested(2), nested(3)
	point := Features(mustInv(t, spatial.MustBuild(spatial.MustSchema("P"), map[string]region.Region{
		"P": region.Rect(0, 0, 1, 1),
	})))
	if d23, dp := Distance(v2, v3), Distance(v2, point); d23 >= dp {
		t.Fatalf("one nesting step (%v) should be nearer than a collapse to a single rectangle (%v)", d23, dp)
	}
}

func TestCanonicalKeyIncludesSchemaNames(t *testing.T) {
	p := mustInv(t, spatial.MustBuild(spatial.MustSchema("P"), map[string]region.Region{
		"P": region.Rect(0, 0, 10, 10),
	}))
	q := mustInv(t, spatial.MustBuild(spatial.MustSchema("Q"), map[string]region.Region{
		"Q": region.Rect(0, 0, 10, 10),
	}))
	kp, ok := CanonicalKey(p)
	if !ok {
		t.Fatal("exact tier abstained on a rectangle")
	}
	kq, ok := CanonicalKey(q)
	if !ok {
		t.Fatal("exact tier abstained on a rectangle")
	}
	if kp == kq {
		t.Fatal("relabeled region name produced the same canonical key; invariant.Isomorphic distinguishes them")
	}
	if invariant.Isomorphic(p, q) {
		t.Fatal("precondition: differently-named instances should not be isomorphic")
	}
}

func TestCanonicalKeyAbstainsOnHugeComponents(t *testing.T) {
	// A single component with > maxCanonicalComponentCells cells: a long
	// chain of touching rectangles alternating between two region names
	// (same-name touching rectangles would dissolve into one free loop —
	// the junction edges only survive when they separate different signs).
	var pf, qf []region.Feature
	for i := int64(0); i < 60; i++ {
		r := region.Rect(i*10, 0, i*10+10, 10)
		if i%2 == 0 {
			pf = append(pf, r.Features...)
		} else {
			qf = append(qf, r.Features...)
		}
	}
	inv := mustInv(t, spatial.MustBuild(spatial.MustSchema("P", "Q"), map[string]region.Region{
		"P": region.Must(pf...),
		"Q": region.Must(qf...),
	}))
	big := 0
	for _, c := range inv.Components().List {
		if c.Size() > big {
			big = c.Size()
		}
	}
	if big <= maxCanonicalComponentCells {
		t.Skipf("largest component only %d cells; budget %d not exercised", big, maxCanonicalComponentCells)
	}
	if _, ok := CanonicalKey(inv); ok {
		t.Fatal("expected abstention beyond the canonical-code budget")
	}
	if ClassID(inv) != "" {
		t.Fatal("ClassID should be empty when the exact tier abstains")
	}
	if FingerprintID(inv) == "" {
		t.Fatal("fingerprint must still be available on abstention")
	}
}
