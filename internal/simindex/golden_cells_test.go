package simindex

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/arrangement"
	"repro/internal/codec"
	"repro/internal/invariant"
	"repro/internal/pointfo"
	"repro/internal/spatial"
)

// goldenCell pins what the cells' sign classes feed: the invariant's codec
// bytes, the feature vector and the point sample's membership matrix.
type goldenCell struct {
	Invariant string `json:"invariant_sha256"`
	// Features holds the FeatureDim coordinates as math.Float64bits hex
	// words, separated by spaces, so a drift in the last bit shows.
	Features string `json:"features"`
	Sample   string `json:"sample_sha256"`
}

// reversedSchema returns a copy of inst whose schema lists the region names
// in reverse order. Topology and region contents are unchanged; only the
// schema enumeration (and with it every schema-ordered sign vector) moves.
func reversedSchema(t *testing.T, inst *spatial.Instance) *spatial.Instance {
	t.Helper()
	names := inst.Schema().Names()
	slices.Reverse(names)
	out := spatial.NewInstance(spatial.MustSchema(names...))
	for _, n := range names {
		if r := inst.Region(n); !r.IsEmpty() {
			if err := out.Set(n, r); err != nil {
				t.Fatalf("reverse schema: %v", err)
			}
		}
	}
	return out
}

func goldenCellOf(t *testing.T, name string, inst *spatial.Instance) (goldenCell, *invariant.Invariant) {
	t.Helper()
	cx, err := arrangement.Build(inst)
	if err != nil {
		t.Fatalf("%s: arrangement: %v", name, err)
	}
	inv := invariant.FromComplex(cx)
	if err := inv.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	data, err := codec.EncodeInvariant(inv)
	if err != nil {
		t.Fatalf("%s: encode: %v", name, err)
	}
	inv, err = codec.DecodeInvariant(data)
	if err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	invSum := sha256.Sum256(data)

	vec := Features(inv)
	words := make([]string, len(vec))
	for i, x := range vec {
		words[i] = fmt.Sprintf("%016x", math.Float64bits(x))
	}

	s := pointfo.SampleFromComplex(cx)
	h := sha256.New()
	fmt.Fprintf(h, "points=%d;regions=%q;", len(s.Points), s.Regions)
	for r := range s.Regions {
		binary.Write(h, binary.LittleEndian, []uint64(s.In[r]))
		binary.Write(h, binary.LittleEndian, []uint64(s.Interior[r]))
	}
	return goldenCell{
		Invariant: hex.EncodeToString(invSum[:]),
		Features:  strings.Join(words, " "),
		Sample:    hex.EncodeToString(h.Sum(nil)),
	}, inv
}

// TestGoldenCellData pins the codec bytes, the feature vector and the
// sample matrix of every classIDCorpus instance, and of a reversed-schema
// copy of each multi-region one. The copies put every region at another
// schema position, so a consumer that reads signs at the wrong position or
// in the wrong order shows up here even where the generator instances
// agree. The copies must also keep the original's ClassID, FingerprintID
// and feature bits, none of which may depend on the schema's order. A
// refactor of the cell records or of any sign consumer must reproduce this
// file without regenerating it. Every freshly built invariant must also
// pass Validate, Euler's relation included.
func TestGoldenCellData(t *testing.T) {
	path := filepath.Join("testdata", "golden_cells.json")
	got := make(map[string]goldenCell)
	for name, inst := range classIDCorpus(t) {
		g, inv := goldenCellOf(t, name, inst)
		got[name] = g
		if inst.Schema().Size() < 2 {
			continue
		}
		rname := name + "/reversed"
		rg, rinv := goldenCellOf(t, rname, reversedSchema(t, inst))
		got[rname] = rg
		if ClassID(rinv) != ClassID(inv) {
			t.Errorf("%s: class id differs from the original's", rname)
		}
		if FingerprintID(rinv) != FingerprintID(inv) {
			t.Errorf("%s: fingerprint id differs from the original's", rname)
		}
		if rg.Features != g.Features {
			t.Errorf("%s: feature bits differ from the original's", rname)
		}
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
		t.Fatalf("read golden cells (run with -update to generate): %v", err)
	}
	var want map[string]goldenCell
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
		case g.Invariant != w.Invariant:
			t.Errorf("%s: invariant encoding drifted from golden pin", name)
		case g.Features != w.Features:
			gw, ww := strings.Fields(g.Features), strings.Fields(w.Features)
			for i := range ww {
				if i < len(gw) && gw[i] != ww[i] {
					t.Errorf("%s: feature %d drifted from golden pin: got %s, want %s", name, i, gw[i], ww[i])
				}
			}
		case g.Sample != w.Sample:
			t.Errorf("%s: sample matrix drifted from golden pin", name)
		}
	}
}
