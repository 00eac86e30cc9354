package translate

import (
	"testing"

	"repro/internal/invariant"
	"repro/internal/pointfo"
	"repro/internal/region"
	"repro/internal/spatial"
)

func invOf(t *testing.T, regs map[string]region.Region) *invariant.Invariant {
	t.Helper()
	names := make([]string, 0, len(regs))
	for n := range regs {
		names = append(names, n)
	}
	inst := spatial.MustBuild(spatial.MustSchema(names...), regs)
	return invariant.MustCompute(inst)
}

func TestBuildComponentOrdersCoverAllCells(t *testing.T) {
	inv := invOf(t, map[string]region.Region{
		"P": region.Rect(0, 0, 4, 4),
		"Q": region.Rect(2, 2, 6, 6),
	})
	cs := inv.Components()
	if cs.Count() != 1 {
		t.Fatal("expected one component")
	}
	comp := cs.List[0]
	orders := BuildComponentOrders(inv, comp)
	if len(orders) == 0 {
		t.Fatal("no orders built")
	}
	want := len(comp.Vertices) + len(comp.Edges) + len(comp.Faces)
	for _, o := range orders {
		if len(o.Cells) != want {
			t.Errorf("order covers %d cells, want %d", len(o.Cells), want)
		}
		// Each order is a permutation: no repeated cells.
		seen := map[string]bool{}
		for _, c := range o.Cells {
			if seen[c.String()] {
				t.Errorf("cell %v repeated in order", c)
			}
			seen[c.String()] = true
		}
	}
	// Lemma 3.1 yields polynomially many orders: 2 orientations × (vertex,
	// proper edge) pairs.
	wantOrders := 0
	for _, v := range comp.Vertices {
		wantOrders += len(inv.ProperEdgesOfVertex(v))
	}
	wantOrders *= 2
	if len(orders) != wantOrders {
		t.Errorf("orders = %d, want %d", len(orders), wantOrders)
	}
}

func TestBuildComponentOrdersSpecialCases(t *testing.T) {
	// Free loop component (a plain disk region) and an isolated vertex.
	inv := invOf(t, map[string]region.Region{
		"P": region.Must(
			region.AreaFeature(regionRect(0, 0, 4, 4)),
			region.PointFeature(pt(10, 10)),
		),
	})
	cs := inv.Components()
	if cs.Count() != 2 {
		t.Fatalf("components = %d, want 2", cs.Count())
	}
	for _, comp := range cs.List {
		orders := BuildComponentOrders(inv, comp)
		if len(orders) == 0 {
			t.Errorf("component %d: no orders", comp.ID)
		}
		for _, o := range orders {
			if len(o.Cells) != comp.Size()+len(comp.Faces) {
				t.Errorf("component %d: order covers %d cells, want %d", comp.ID, len(o.Cells), comp.Size()+len(comp.Faces))
			}
		}
	}
}

func TestCanonicalCodeMatchesIsomorphism(t *testing.T) {
	a := invOf(t, map[string]region.Region{"P": region.Rect(0, 0, 4, 4), "Q": region.Rect(2, 2, 6, 6)})
	b := invOf(t, map[string]region.Region{"P": region.Rect(10, 10, 30, 30), "Q": region.Rect(20, 20, 40, 40)})
	c := invOf(t, map[string]region.Region{"P": region.Rect(0, 0, 4, 4), "Q": region.Rect(10, 0, 14, 4)})
	if CanonicalCode(a) != CanonicalCode(b) {
		t.Error("homeomorphic instances should share a canonical code")
	}
	if CanonicalCode(a) == CanonicalCode(c) {
		t.Error("non-equivalent instances should have different codes")
	}
	// Consistency with the isomorphism test.
	if invariant.Isomorphic(a, b) != (CanonicalCode(a) == CanonicalCode(b)) {
		t.Error("canonical code disagrees with isomorphism (a,b)")
	}
	if invariant.Isomorphic(a, c) != (CanonicalCode(a) == CanonicalCode(c)) {
		t.Error("canonical code disagrees with isomorphism (a,c)")
	}
	// Nested versus disjoint multi-component instances.
	d := invOf(t, map[string]region.Region{"P": region.Annulus(0, 0, 30, 30, 3), "Q": region.Rect(10, 10, 20, 20)})
	e := invOf(t, map[string]region.Region{"P": region.Annulus(100, 100, 160, 160, 7), "Q": region.Rect(120, 120, 140, 140)})
	f := invOf(t, map[string]region.Region{"P": region.Annulus(0, 0, 30, 30, 3), "Q": region.Rect(100, 100, 120, 120)})
	if CanonicalCode(d) != CanonicalCode(e) {
		t.Error("homeomorphic nested instances should share a code")
	}
	if CanonicalCode(d) == CanonicalCode(f) {
		t.Error("nested vs pulled-out square should differ")
	}
}

func TestInvertToLinearRoundTrip(t *testing.T) {
	cases := []map[string]region.Region{
		{"P": region.Rect(0, 0, 4, 4)},
		{"P": region.Annulus(0, 0, 20, 20, 3)},
		{"P": region.Rect(0, 0, 10, 10), "Q": region.Rect(3, 3, 6, 6)},
		{"P": region.Rect(0, 0, 10, 10), "Q": region.Rect(30, 0, 40, 10)},
		{"P": region.Must(
			region.AreaFeature(regionRect(0, 0, 4, 4)),
			region.AreaFeature(regionRect(10, 0, 14, 4)),
			region.PointFeature(pt(20, 20)),
		)},
		{"P": region.Annulus(0, 0, 40, 40, 4), "Q": region.Rect(15, 15, 25, 25), "R": region.Rect(100, 0, 110, 10)},
	}
	for i, regs := range cases {
		inv := invOf(t, regs)
		j, err := InvertToLinear(inv)
		if err != nil {
			t.Errorf("case %d: InvertToLinear: %v", i, err)
			continue
		}
		back := invariant.MustCompute(j)
		if !invariant.Isomorphic(inv, back) {
			t.Errorf("case %d: inversion is not topologically equivalent\noriginal: %s\nrebuilt:  %s", i, inv, back)
		}
	}
}

func TestInvertToLinearUnsupported(t *testing.T) {
	// Crossing boundaries create vertices: outside the supported class.
	inv := invOf(t, map[string]region.Region{
		"P": region.Rect(0, 0, 4, 4),
		"Q": region.Rect(2, 2, 6, 6),
	})
	if _, err := InvertToLinear(inv); err == nil {
		t.Error("expected an error for components with vertices")
	}
}

func TestToFixpointQuery(t *testing.T) {
	q := pointfo.QueryIntersect("P", "Q")
	fq := ToFixpointQuery(q, false)
	if !fq.RequiresCounting {
		t.Error("general translation requires counting")
	}
	if !ToFixpointQuery(q, true).RequiresCounting == false {
		t.Error("connected-region translation should not require counting")
	}
	overlapNested := invOf(t, map[string]region.Region{
		"P": region.Rect(0, 0, 10, 10),
		"Q": region.Rect(3, 3, 6, 6),
	})
	disjoint := invOf(t, map[string]region.Region{
		"P": region.Rect(0, 0, 10, 10),
		"Q": region.Rect(30, 30, 40, 40),
	})
	if got, err := fq.EvaluateOnInvariant(overlapNested); err != nil || !got {
		t.Errorf("nested instance should intersect: %v %v", got, err)
	}
	if got, err := fq.EvaluateOnInvariant(disjoint); err != nil || got {
		t.Errorf("disjoint instance should not intersect: %v %v", got, err)
	}
	// Agreement with direct evaluation on the original instances.
	for _, regs := range []map[string]region.Region{
		{"P": region.Rect(0, 0, 10, 10), "Q": region.Rect(3, 3, 6, 6)},
		{"P": region.Rect(0, 0, 10, 10), "Q": region.Rect(30, 30, 40, 40)},
	} {
		names := []string{"P", "Q"}
		inst := spatial.MustBuild(spatial.MustSchema(names...), regs)
		direct, err := defaultEval(inst, q)
		if err != nil {
			t.Fatal(err)
		}
		viaInv, err := fq.EvaluateOnInvariant(invariant.MustCompute(inst))
		if err != nil {
			t.Fatal(err)
		}
		if direct != viaInv {
			t.Errorf("direct %v != via invariant %v", direct, viaInv)
		}
	}
}

func TestToFOQuerySingleRegion(t *testing.T) {
	// "P has at least one boundary vertex with an interior sector" versus
	// simpler intersection-style queries: use "P is nonempty" and "P has an
	// interior point" as the battery.
	nonempty := pointfo.PExists{Vars: []string{"u"}, Body: pointfo.In{Region: "P", Var: "u"}}
	hasInterior := pointfo.PExists{Vars: []string{"u"}, Body: pointfo.InInterior{Region: "P", Var: "u"}}

	instances := []map[string]region.Region{
		{"P": region.Must(region.AreaFeature(regionRect(0, 0, 4, 4)), region.AreaFeature(triangleAt(10, 0)))},
		{"P": region.FromPolyline(polylineAt(0, 0))},
		{"P": region.FromPoint(pt(3, 3))},
	}
	for _, q := range []pointfo.PointFormula{nonempty, hasInterior} {
		fo := ToFOQuery("P", q)
		for i, regs := range instances {
			inst := spatial.MustBuild(spatial.MustSchema("P"), regs)
			direct, err := defaultEval(inst, q)
			if err != nil {
				t.Fatal(err)
			}
			viaInv, err := fo.EvaluateOnInvariant(invariant.MustCompute(inst))
			if err != nil {
				t.Errorf("query %s instance %d: %v", q, i, err)
				continue
			}
			if direct != viaInv {
				t.Errorf("query %s instance %d: direct %v != FO-on-invariant %v", q, i, direct, viaInv)
			}
		}
		if fo.ClassesEvaluated == 0 {
			t.Error("no classes were evaluated")
		}
	}
}

func TestEnumerateClassesGrows(t *testing.T) {
	q := pointfo.PExists{Vars: []string{"u"}, Body: pointfo.In{Region: "P", Var: "u"}}
	small := ToFOQuery("P", q)
	nSmall, err := small.EnumerateClasses(2, 1)
	if err != nil {
		t.Fatalf("EnumerateClasses: %v", err)
	}
	large := ToFOQuery("P", q)
	nLarge, err := large.EnumerateClasses(4, 2)
	if err != nil {
		t.Fatalf("EnumerateClasses: %v", err)
	}
	if nSmall == 0 || nLarge <= nSmall {
		t.Errorf("class enumeration should grow with the bounds: %d vs %d", nSmall, nLarge)
	}
}

// --- small test helpers -------------------------------------------------------
