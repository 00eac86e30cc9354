package engine

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"testing"

	"repro/internal/region"
	"repro/internal/simindex"
	"repro/internal/spatial"
)

func simInstances(t *testing.T) (a, a2, b, c *spatial.Instance) {
	t.Helper()
	mk := func(offset int64) *spatial.Instance {
		return spatial.MustBuild(spatial.MustSchema("P"), map[string]region.Region{
			"P": region.Rect(offset, 0, offset+10, 10),
		})
	}
	a, a2 = mk(0), mk(500) // homeomorphic pair, distinct content keys
	b = spatial.MustBuild(spatial.MustSchema("P"), map[string]region.Region{
		"P": region.Annulus(0, 0, 30, 30, 3),
	})
	c = spatial.MustBuild(spatial.MustSchema("P", "Q"), map[string]region.Region{
		"P": region.Rect(0, 0, 4, 4),
		"Q": region.Rect(2, 2, 6, 6),
	})
	return
}

func TestEngineSimilar(t *testing.T) {
	e := New()
	a, a2, b, c := simInstances(t)
	for _, inst := range []*spatial.Instance{a, a2, b, c} {
		if _, err := e.Invariant(inst); err != nil {
			t.Fatal(err)
		}
	}
	ms, err := e.Similar(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("got %d matches, want 3", len(ms))
	}
	a2Key, err := InstanceKey(a2)
	if err != nil {
		t.Fatal(err)
	}
	if !ms[0].Exact || ms[0].Distance != 0 || ms[0].ID != a2Key {
		t.Fatalf("first match %+v, want exact hit on translated twin %s", ms[0], a2Key)
	}
	for _, m := range ms[1:] {
		if m.Exact || m.Distance <= 0 {
			t.Fatalf("approximate match %+v should have positive distance", m)
		}
	}
	aKey, err := InstanceKey(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if m.ID == aKey {
			t.Fatal("probe matched itself")
		}
	}
	st := e.Stats()
	if st.Sim.Entries != 4 {
		t.Fatalf("Sim.Entries = %d, want 4", st.Sim.Entries)
	}
	if ent, ok := e.SimEntry(a); !ok || ent.Class == "" || ent.Fingerprint == "" {
		t.Fatalf("SimEntry(a) = %+v, %v", ent, ok)
	}
}

func TestEngineSimilarSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	a, a2, b, c := simInstances(t)

	e1 := New(WithStore(dir))
	if err := e1.StoreErr(); err != nil {
		t.Fatal(err)
	}
	for _, inst := range []*spatial.Instance{a, a2, b, c} {
		if _, err := e1.Invariant(inst); err != nil {
			t.Fatal(err)
		}
	}
	want, err := e1.Similar(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(simindex.IndexFilePath(dir)); err != nil {
		t.Fatalf("index file not persisted: %v", err)
	}

	// Restart: the index must come back from SIMINDEX.bin with zero
	// invariant recomputes and zero reindexed blobs.
	e2 := New(WithStore(dir))
	if err := e2.StoreErr(); err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	st := e2.Stats()
	if st.SimLoaded != 4 || st.SimReindexed != 0 {
		t.Fatalf("loaded %d reindexed %d, want 4/0", st.SimLoaded, st.SimReindexed)
	}
	got, err := e2.Similar(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("restart changed result count: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("restart changed match %d: %+v vs %+v", i, got[i], want[i])
		}
	}
	if st := e2.Stats(); st.Computes != 0 {
		t.Fatalf("restart recomputed %d invariants, want 0", st.Computes)
	}
}

func TestEngineSimReindexesWhenFileMissing(t *testing.T) {
	dir := t.TempDir()
	a, _, b, _ := simInstances(t)
	e1 := New(WithStore(dir))
	for _, inst := range []*spatial.Instance{a, b} {
		if _, err := e1.Invariant(inst); err != nil {
			t.Fatal(err)
		}
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash before Close ever wrote the index file.
	if err := os.Remove(simindex.IndexFilePath(dir)); err != nil {
		t.Fatal(err)
	}
	e2 := New(WithStore(dir))
	defer e2.Close()
	st := e2.Stats()
	if st.SimLoaded != 0 || st.SimReindexed != 2 {
		t.Fatalf("loaded %d reindexed %d, want 0/2", st.SimLoaded, st.SimReindexed)
	}
	if st.Sim.Entries != 2 {
		t.Fatalf("Sim.Entries = %d, want 2", st.Sim.Entries)
	}
}

func TestEngineSimReindexesStaleFile(t *testing.T) {
	dir := t.TempDir()
	a, _, b, _ := simInstances(t)
	e1 := New(WithStore(dir))
	for _, inst := range []*spatial.Instance{a, b} {
		if _, err := e1.Invariant(inst); err != nil {
			t.Fatal(err)
		}
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	// Rewrite the index file in the previous format, version 1 with 32
	// coordinates per entry, as a server built before the feature change
	// left it.
	path := simindex.IndexFilePath(dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := simindex.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	stale := binary.LittleEndian.AppendUint32([]byte("TSIM"), 1)
	stale = binary.LittleEndian.AppendUint32(stale, 32)
	stale = binary.LittleEndian.AppendUint64(stale, uint64(len(entries)))
	for _, en := range entries {
		for _, s := range []string{en.ID, en.Class, en.Fingerprint} {
			stale = append(binary.LittleEndian.AppendUint32(stale, uint32(len(s))), s...)
		}
		stale = append(stale, make([]byte, 32*8)...)
	}
	stale = binary.LittleEndian.AppendUint32(stale, crc32.Checksum(stale, crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(path, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := simindex.New().LoadFile(path); err == nil {
		t.Fatal("a version-1 index file loaded without error")
	}

	e2 := New(WithStore(dir))
	st := e2.Stats()
	if st.SimErrors != 1 || st.SimLoaded != 0 || st.SimReindexed != 2 {
		t.Fatalf("errors %d loaded %d reindexed %d, want 1/0/2", st.SimErrors, st.SimLoaded, st.SimReindexed)
	}
	if st.Sim.Entries != 2 {
		t.Fatalf("Sim.Entries = %d, want 2", st.Sim.Entries)
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	// Close wrote the rebuilt index in the current format.
	e3 := New(WithStore(dir))
	defer e3.Close()
	if st := e3.Stats(); st.SimErrors != 0 || st.SimLoaded != 2 || st.SimReindexed != 0 {
		t.Fatalf("after rebuild: errors %d loaded %d reindexed %d, want 0/2/0", st.SimErrors, st.SimLoaded, st.SimReindexed)
	}
}
