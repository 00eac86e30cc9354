package core

import (
	"testing"

	"repro/internal/pointfo"
	"repro/internal/region"
	"repro/internal/spatial"
	"repro/internal/workload"
)

func TestAskStrategiesAgree(t *testing.T) {
	// Single-region nested instance: all four strategies are applicable and
	// must agree on topological queries.
	inst := spatial.MustBuild(spatial.MustSchema("P"), map[string]region.Region{
		"P": region.Annulus(0, 0, 40, 40, 5),
	})
	db, err := Open(inst)
	if err != nil {
		t.Fatal(err)
	}
	queries := []pointfo.PointFormula{
		pointfo.PExists{Vars: []string{"u"}, Body: pointfo.In{Region: "P", Var: "u"}},
		pointfo.PExists{Vars: []string{"u"}, Body: pointfo.InInterior{Region: "P", Var: "u"}},
		pointfo.PForall{Vars: []string{"u"}, Body: pointfo.In{Region: "P", Var: "u"}},
	}
	for _, q := range queries {
		want, err := db.Ask(q, Direct)
		if err != nil {
			t.Fatalf("direct: %v", err)
		}
		for _, s := range []Strategy{ViaInvariantFO, ViaInvariantFixpoint, ViaLinearized} {
			got, err := db.Ask(q, s)
			if err != nil {
				t.Errorf("strategy %v: %v", s, err)
				continue
			}
			if got != want {
				t.Errorf("query %s: strategy %v = %v, direct = %v", q, s, got, want)
			}
		}
	}
	if _, err := db.Ask(queries[0], Strategy(99)); err == nil {
		t.Error("unknown strategy should error")
	}
}

func TestAskMultiRegion(t *testing.T) {
	inst := spatial.MustBuild(spatial.MustSchema("P", "Q"), map[string]region.Region{
		"P": region.Rect(0, 0, 10, 10),
		"Q": region.Rect(3, 3, 6, 6),
	})
	db, err := Open(inst)
	if err != nil {
		t.Fatal(err)
	}
	q := pointfo.QueryIntersect("P", "Q")
	direct, err := db.Ask(q, Direct)
	if err != nil || !direct {
		t.Fatalf("direct: %v %v", direct, err)
	}
	viaFix, err := db.Ask(q, ViaInvariantFixpoint)
	if err != nil || viaFix != direct {
		t.Errorf("fixpoint strategy: %v %v", viaFix, err)
	}
	viaLin, err := db.Ask(q, ViaLinearized)
	if err != nil || viaLin != direct {
		t.Errorf("linearized strategy: %v %v", viaLin, err)
	}
	if _, err := db.Ask(q, ViaInvariantFO); err == nil {
		t.Error("FO strategy should reject multi-region schemas")
	}
	if inv, err := db.Invariant(); err != nil || inv == nil {
		t.Error("Invariant accessor wrong")
	}
}

func TestTopologicallyEquivalent(t *testing.T) {
	a := spatial.MustBuild(spatial.MustSchema("P"), map[string]region.Region{"P": region.Rect(0, 0, 4, 4)})
	b := spatial.MustBuild(spatial.MustSchema("P"), map[string]region.Region{"P": region.Rect(100, 100, 300, 200)})
	c := spatial.MustBuild(spatial.MustSchema("P"), map[string]region.Region{"P": region.Annulus(0, 0, 10, 10, 3)})
	if eq, err := TopologicallyEquivalent(a, b); err != nil || !eq {
		t.Errorf("rectangles should be equivalent: %v %v", eq, err)
	}
	if eq, err := TopologicallyEquivalent(a, c); err != nil || eq {
		t.Errorf("rectangle and annulus should differ: %v %v", eq, err)
	}
}

// TestAutoStrategy: Auto must answer every seed workload query without error
// — resolving to the invariant-based fixpoint strategy where the invariant
// is invertible (free-loop components) and falling back to Direct where it
// is not (junction vertices, curve endpoints) — and always agree with
// Direct.  ViaInvariantFixpoint itself hard-errors on the non-invertible
// workloads, which is exactly the failure Auto exists to absorb.
func TestAutoStrategy(t *testing.T) {
	landuse, err := workload.LandUse(workload.DefaultLandUse(1))
	if err != nil {
		t.Fatal(err)
	}
	hydro, err := workload.Hydrography(workload.DefaultHydrography(1))
	if err != nil {
		t.Fatal(err)
	}
	commune, err := workload.Commune(workload.DefaultCommune(1))
	if err != nil {
		t.Fatal(err)
	}
	nested, err := workload.NestedRegions(2)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := workload.MultiComponent(3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		inst    *spatial.Instance
		query   pointfo.PointFormula
		resolve Strategy // what Auto should pick
	}{
		{"landuse", landuse, pointfo.QueryIntersect("class00", "class01"), Direct},
		{"hydrography", hydro, pointfo.QueryIntersect("rivers", "lakes"), Direct},
		{"commune", commune, pointfo.QueryIntersect("class00", "class01"), Direct},
		{"nested", nested, pointfo.PExists{Vars: []string{"u"}, Body: pointfo.InInterior{Region: "P", Var: "u"}}, ViaInvariantFixpoint},
		{"multicomponent", multi, pointfo.PExists{Vars: []string{"u"}, Body: pointfo.In{Region: "P", Var: "u"}}, ViaInvariantFixpoint},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db, err := Open(tc.inst)
			if err != nil {
				t.Fatal(err)
			}
			if got := db.Resolve(Auto); got != tc.resolve {
				t.Errorf("Resolve(Auto) = %v, want %v", got, tc.resolve)
			}
			want, err := db.Ask(tc.query, Direct)
			if err != nil {
				t.Fatalf("direct: %v", err)
			}
			got, err := db.Ask(tc.query, Auto)
			if err != nil {
				t.Fatalf("auto: %v", err)
			}
			if got != want {
				t.Errorf("auto = %v, direct = %v", got, want)
			}
			// The fallback cases are exactly those where fixpoint errors.
			_, ferr := db.Ask(tc.query, ViaInvariantFixpoint)
			if tc.resolve == Direct && ferr == nil {
				t.Error("fixpoint unexpectedly succeeded; Auto fallback untested")
			}
			if tc.resolve == ViaInvariantFixpoint && ferr != nil {
				t.Errorf("fixpoint errored on invertible instance: %v", ferr)
			}
		})
	}
	// Concrete strategies resolve to themselves.
	db, err := Open(nested)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Strategy{Direct, ViaInvariantFO, ViaInvariantFixpoint, ViaLinearized} {
		if got := db.Resolve(s); got != s {
			t.Errorf("Resolve(%v) = %v, want identity", s, got)
		}
	}
	if Auto.String() != "auto" {
		t.Errorf("Auto.String() = %q", Auto.String())
	}
}
