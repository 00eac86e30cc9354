package simindex

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/invariant"
	"repro/internal/spatial"
	"repro/internal/workload"
)

// goldenID pins the two identifiers a persisted SIMINDEX.bin stores per
// entry: the exact-tier class and the fingerprint.
type goldenID struct {
	ClassID       string `json:"class_id"`
	FingerprintID string `json:"fingerprint_id"`
}

// classIDCorpus returns the 108 instances whose identifiers are pinned: the
// cartographic generators at scales 1 and 2, the nested and multi-component
// shapes at sizes 1–6, and the scale-1 cartographic maps at seeds 1–30 (the
// maps perfbench's ingest posts).
func classIDCorpus(t *testing.T) map[string]*spatial.Instance {
	t.Helper()
	out := make(map[string]*spatial.Instance)
	add := func(name string, inst *spatial.Instance, err error) {
		if err != nil {
			t.Fatalf("generate %s: %v", name, err)
		}
		out[name] = inst
	}
	for scale := 1; scale <= 2; scale++ {
		landuse, err := workload.LandUse(workload.DefaultLandUse(scale))
		add(fmt.Sprintf("landuse/scale%d", scale), landuse, err)
		hydro, err := workload.Hydrography(workload.DefaultHydrography(scale))
		add(fmt.Sprintf("hydrography/scale%d", scale), hydro, err)
		commune, err := workload.Commune(workload.DefaultCommune(scale))
		add(fmt.Sprintf("commune/scale%d", scale), commune, err)
	}
	for n := 1; n <= 6; n++ {
		nested, err := workload.NestedRegions(n)
		add(fmt.Sprintf("nested/%d", n), nested, err)
		multi, err := workload.MultiComponent(n)
		add(fmt.Sprintf("multicomponent/%d", n), multi, err)
	}
	for seed := int64(1); seed <= 30; seed++ {
		lp := workload.DefaultLandUse(1)
		lp.Seed = seed
		landuse, err := workload.LandUse(lp)
		add(fmt.Sprintf("landuse/seed%02d", seed), landuse, err)
		hp := workload.DefaultHydrography(1)
		hp.Seed = seed
		hydro, err := workload.Hydrography(hp)
		add(fmt.Sprintf("hydrography/seed%02d", seed), hydro, err)
		cp := workload.DefaultCommune(1)
		cp.Seed = seed
		commune, err := workload.Commune(cp)
		add(fmt.Sprintf("commune/seed%02d", seed), commune, err)
	}
	return out
}

// TestGoldenClassIDs pins ClassID and FingerprintID across a wide corpus.
// Both are persisted in SIMINDEX.bin and ClassID buckets every exact-tier
// lookup, so a refactor of translate.CanonicalCode or
// invariant.Fingerprint must reproduce these bytes without regenerating the
// file; only a deliberate key change (with a canonicalKeyVersion bump) may
// re-run it with -update.
func TestGoldenClassIDs(t *testing.T) {
	path := filepath.Join("testdata", "golden_ids.json")
	got := make(map[string]goldenID)
	for name, inst := range classIDCorpus(t) {
		inv, err := invariant.Compute(inst)
		if err != nil {
			t.Fatalf("%s: invariant: %v", name, err)
		}
		id := ClassID(inv)
		if id == "" {
			t.Fatalf("%s: exact tier abstained; every pinned instance must stay within the canonical-code budget", name)
		}
		got[name] = goldenID{ClassID: id, FingerprintID: FingerprintID(inv)}
	}

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden ids (run with -update to generate): %v", err)
	}
	var want map[string]goldenID
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file pins %d instances, corpus has %d", len(want), len(got))
	}
	for name, w := range want {
		g, ok := got[name]
		switch {
		case !ok:
			t.Errorf("golden file pins %q but the corpus does not produce it", name)
		case g.ClassID != w.ClassID:
			t.Errorf("%s: class id drifted from golden pin\n got: %s\nwant: %s", name, g.ClassID, w.ClassID)
		case g.FingerprintID != w.FingerprintID:
			t.Errorf("%s: fingerprint id drifted from golden pin\n got: %s\nwant: %s", name, g.FingerprintID, w.FingerprintID)
		}
	}
}
