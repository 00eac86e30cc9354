package cones

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/invariant"
	"repro/internal/region"
	"repro/internal/spatial"
)

func singleRegionInvariant(t *testing.T, r region.Region) *invariant.Invariant {
	t.Helper()
	inst := spatial.MustBuild(spatial.MustSchema("P"), map[string]region.Region{"P": r})
	return invariant.MustCompute(inst)
}

func TestCycleValidate(t *testing.T) {
	good := Cycle{Labels: []Label{EdgeLabel, FaceIn, EdgeLabel, FaceOut}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid cycle rejected: %v", err)
	}
	cases := []Cycle{
		{},
		{Labels: []Label{EdgeLabel}},
		{Labels: []Label{EdgeLabel, FaceIn, FaceOut}},
		{Labels: []Label{FaceIn, EdgeLabel}},
		{Labels: []Label{EdgeLabel, FaceIn, EdgeLabel, FaceIn}}, // edge between two interiors
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d (%s): invalid cycle accepted", i, c)
		}
	}
	iso := Cycle{Labels: []Label{FaceOut}}
	if err := iso.Validate(); err != nil {
		t.Errorf("isolated vertex cycle rejected: %v", err)
	}
	if good.Degree() != 2 || good.String() == "" {
		t.Error("Degree/String wrong")
	}
}

func TestExtractFromCrossingSquares(t *testing.T) {
	// A single region made of two squares sharing exactly one corner: the
	// pinch vertex has a degree-4 cone alternating in/out faces.
	r := region.Must(
		region.AreaFeature(geom.MustPolygon(geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 4))),
		region.AreaFeature(geom.MustPolygon(geom.Pt(4, 4), geom.Pt(8, 4), geom.Pt(8, 8))),
	)
	inv := singleRegionInvariant(t, r)
	cycles, err := Extract(inv, "P")
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	if len(cycles) != 1 {
		t.Fatalf("cycles = %d, want 1", len(cycles))
	}
	c := cycles[0]
	if c.Degree() != 4 {
		t.Errorf("pinch cone degree = %d, want 4", c.Degree())
	}
	in, out := 0, 0
	for _, l := range c.Labels {
		switch l {
		case FaceIn:
			in++
		case FaceOut:
			out++
		}
	}
	if in != 2 || out != 2 {
		t.Errorf("cone has %d interior and %d exterior sectors, want 2/2", in, out)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("extracted cycle invalid: %v", err)
	}
}

func TestExtractRejectsMultiRegion(t *testing.T) {
	inst := spatial.MustBuild(spatial.MustSchema("P", "Q"), map[string]region.Region{
		"P": region.Rect(0, 0, 4, 4),
		"Q": region.Rect(2, 2, 6, 6),
	})
	inv := invariant.MustCompute(inst)
	if _, err := Extract(inv, "P"); err == nil {
		t.Error("Extract should reject multi-region schemas")
	}
	if _, err := Extract(inv, "X"); err == nil {
		t.Error("Extract should reject unknown regions")
	}
}

func TestCycleEquivalenceAndClassifier(t *testing.T) {
	a := Cycle{Labels: []Label{EdgeLabel, FaceIn, EdgeLabel, FaceOut}}
	// The same cycle rotated is equivalent.
	b := Cycle{Labels: []Label{EdgeLabel, FaceOut, EdgeLabel, FaceIn}}
	c := Cycle{Labels: []Label{EdgeLabel, FaceOut, EdgeLabel, FaceOut}}
	if !Equivalent(a, b, 2) {
		t.Error("rotated cycles should be equivalent")
	}
	if Equivalent(a, c, 2) {
		t.Error("cycles with different colour counts should differ")
	}
	cl := NewClassifier(2)
	if cl.TypeOf(a) != cl.TypeOf(b) {
		t.Error("classifier separated equivalent cycles")
	}
	if cl.TypeOf(a) == cl.TypeOf(c) {
		t.Error("classifier merged distinguishable cycles")
	}
	if cl.TypeCount() != 2 {
		t.Errorf("TypeCount = %d, want 2", cl.TypeCount())
	}
	sig1 := cl.Signature([]Cycle{a, b, c})
	sig2 := cl.Signature([]Cycle{b, a, c})
	if sig1 != sig2 {
		t.Error("signature should not depend on order")
	}
	if cl.Signature([]Cycle{a}) == cl.Signature([]Cycle{c}) {
		t.Error("different multisets share a signature")
	}
}

func TestRealizeRoundTrip(t *testing.T) {
	// Realise a cone and check that the invariant of the realised instance
	// has a vertex with the same cone cycle.
	want := Cycle{Labels: []Label{EdgeLabel, FaceIn, EdgeLabel, FaceOut, EdgeLabel, FaceIn, EdgeLabel, FaceOut}}
	inst, err := Realize("P", []Cycle{want})
	if err != nil {
		t.Fatalf("Realize: %v", err)
	}
	inv := invariant.MustCompute(inst)
	got, err := Extract(inv, "P")
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	found := false
	for _, c := range got {
		if c.Degree() == want.Degree() && Equivalent(c, want, 3) {
			found = true
		}
	}
	if !found {
		t.Errorf("realised instance does not contain the requested cone; got %v", got)
	}
}

func TestRealizeIsolatedPointAndErrors(t *testing.T) {
	inst, err := Realize("P", []Cycle{{Labels: []Label{FaceOut}}})
	if err != nil {
		t.Fatalf("Realize point: %v", err)
	}
	inv := invariant.MustCompute(inst)
	if len(inv.Vertices) != 1 || !inv.Vertices[0].Isolated {
		t.Error("isolated-point cycle should realise a single isolated vertex")
	}
	if _, err := Realize("P", []Cycle{{Labels: []Label{FaceIn}}}); err == nil {
		t.Error("interior isolated point should be rejected")
	}
	if _, err := Realize("P", []Cycle{{Labels: []Label{EdgeLabel, FaceIn, EdgeLabel, FaceIn}}}); err == nil {
		t.Error("invalid cycle should be rejected")
	}
}

func TestRealizeMultipleCones(t *testing.T) {
	// A line Y-junction (three pure stems) and a degree-four pinch cone.
	// Note that degree-2 cones like [E,F,E,·] describe *regular* boundary
	// points and can never occur as cells of the maximum decomposition, so
	// only genuinely singular cones are requested here.
	cs := []Cycle{
		{Labels: []Label{EdgeLabel, FaceOut, EdgeLabel, FaceOut, EdgeLabel, FaceOut}},
		{Labels: []Label{EdgeLabel, FaceIn, EdgeLabel, FaceOut, EdgeLabel, FaceIn, EdgeLabel, FaceOut}},
	}
	inst, err := Realize("P", cs)
	if err != nil {
		t.Fatalf("Realize: %v", err)
	}
	inv := invariant.MustCompute(inst)
	got, err := Extract(inv, "P")
	if err != nil {
		t.Fatal(err)
	}
	degrees := map[int]int{}
	for _, c := range got {
		degrees[c.Degree()]++
	}
	if degrees[3] < 1 || degrees[4] < 1 {
		t.Errorf("expected cones of degree 3 and 4, got %v", degrees)
	}
}
