package simindex

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// synthEntry builds a deterministic synthetic entry: vectors on a spiral
// through feature space so distances are distinct and reproducible.
func synthEntry(i int) *Entry {
	var v Vector
	for d := range v {
		v[d] = math.Sin(float64(i)*0.7+float64(d)*0.3) + float64(i%7)*0.1
	}
	class := ""
	if i%3 == 0 {
		class = fmt.Sprintf("class-%d", i/9) // classes of ~3 members
	}
	return &Entry{
		ID:          fmt.Sprintf("id-%04d", i),
		Class:       class,
		Fingerprint: fmt.Sprintf("fp-%04d", i),
		Vec:         v,
	}
}

func synthIndex(n int) *Index {
	x := New()
	for i := 0; i < n; i++ {
		x.Add(synthEntry(i))
	}
	return x
}

func TestIndexExactTierFirst(t *testing.T) {
	x := synthIndex(30)
	probe := synthEntry(0) // class-0, shared with 3 and 6
	got := x.Query(probe, 5)
	if len(got) != 5 {
		t.Fatalf("got %d matches, want 5", len(got))
	}
	// Exact matches first, distance 0, sorted by ID, probe excluded.
	wantExact := []string{"id-0003", "id-0006"}
	for i, id := range wantExact {
		m := got[i]
		if !m.Exact || m.Distance != 0 || m.ID != id {
			t.Fatalf("match %d = %+v, want exact %s at distance 0", i, m, id)
		}
	}
	for _, m := range got[2:] {
		if m.Exact {
			t.Fatalf("approximate region contains exact match %+v", m)
		}
		if m.ID == probe.ID {
			t.Fatal("probe leaked into its own results")
		}
	}
	// Approximate tail ranked by (distance, ID).
	for i := 3; i < len(got); i++ {
		if got[i].Distance < got[i-1].Distance {
			t.Fatalf("approximate matches out of order: %+v before %+v", got[i-1], got[i])
		}
	}
}

// bruteForce is the ranking contract written out: the probe's exact-tier
// classmates by ID at distance 0, then every other entry by (distance, ID),
// the probe excluded, cut to k.
func bruteForce(x *Index, probe *Entry, k int) []Match {
	var exact, near []Match
	for _, e := range x.Entries() { // sorted by ID
		switch {
		case e.ID == probe.ID:
		case probe.Class != "" && e.Class == probe.Class:
			exact = append(exact, Match{ID: e.ID, Exact: true})
		default:
			near = append(near, Match{ID: e.ID, Distance: Distance(probe.Vec, e.Vec)})
		}
	}
	sort.SliceStable(near, func(i, j int) bool { return near[i].Distance < near[j].Distance })
	out := append(exact, near...)
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func TestIndexQueryMatchesScan(t *testing.T) {
	x := synthIndex(300)
	for _, probeIdx := range []int{0, 7, 150, 299} {
		probe := synthEntry(probeIdx)
		for _, k := range []int{1, 5, 17, 1000} {
			got, want := x.Query(probe, k), bruteForce(x, probe, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("probe %d k=%d: query and brute force disagree\nquery: %+v\nbrute: %+v", probeIdx, k, got, want)
			}
		}
	}
	// A probe not in the index at all.
	foreign := synthEntry(100000)
	foreign.Class = ""
	if got, want := x.Query(foreign, 9), bruteForce(x, foreign, 9); !reflect.DeepEqual(got, want) {
		t.Fatalf("foreign probe: query and brute force disagree\nquery: %+v\nbrute: %+v", got, want)
	}
	// Equal distances rank by ID: clones of one vector.
	y := New()
	for _, i := range []int{5, 3, 9, 1} {
		e := synthEntry(i)
		e.Vec, e.Class = foreign.Vec, ""
		y.Add(e)
	}
	if got, want := y.Query(foreign, 3), bruteForce(y, foreign, 3); !reflect.DeepEqual(got, want) {
		t.Fatalf("tied distances: query and brute force disagree\nquery: %+v\nbrute: %+v", got, want)
	}
}

func TestIndexAddIdempotentAndUpdate(t *testing.T) {
	x := synthIndex(10)
	n := x.Len()
	x.Add(synthEntry(4)) // unchanged re-add
	if x.Len() != n {
		t.Fatalf("idempotent re-add changed size: %d -> %d", n, x.Len())
	}
	// Update: same ID, new vector and class.
	e := synthEntry(4)
	e.Vec[0] += 100
	e.Class = "class-new"
	x.Add(e)
	if x.Len() != n {
		t.Fatalf("update changed size: %d -> %d", n, x.Len())
	}
	got, ok := x.Get(e.ID)
	if !ok || got.Class != "class-new" || got.Vec[0] != e.Vec[0] {
		t.Fatalf("update not visible: %+v", got)
	}
	// The updated entry must appear exactly once in results.
	probe := &Entry{ID: "probe", Vec: e.Vec}
	seen := 0
	for _, m := range x.Query(probe, n) {
		if m.ID == e.ID {
			seen++
		}
	}
	if seen != 1 {
		t.Fatalf("updated entry appears %d times in results, want 1", seen)
	}
}

func TestIndexStats(t *testing.T) {
	x := synthIndex(30)
	st := x.Stats()
	if st.Entries != 30 {
		t.Fatalf("Entries = %d, want 30", st.Entries)
	}
	// i%3==0 → 10 entries with classes class-0..class-3 (i/9 ∈ {0,1,2,3}).
	if st.Classes != 4 {
		t.Fatalf("Classes = %d, want 4", st.Classes)
	}
	if st.Abstained != 20 {
		t.Fatalf("Abstained = %d, want 20", st.Abstained)
	}
}

func TestIndexQueryEdgeCases(t *testing.T) {
	x := synthIndex(5)
	if got := x.Query(synthEntry(0), 0); got != nil {
		t.Fatalf("k=0 returned %+v", got)
	}
	if got := x.Query(nil, 5); got != nil {
		t.Fatalf("nil probe returned %+v", got)
	}
	if got := New().Query(synthEntry(0), 5); len(got) != 0 {
		t.Fatalf("empty index returned %+v", got)
	}
	if got := x.Query(synthEntry(1), 100); len(got) != 4 {
		t.Fatalf("k beyond corpus returned %d matches, want 4 (probe excluded)", len(got))
	}
}

func TestCodecRoundTrip(t *testing.T) {
	x := synthIndex(77)
	entries := x.Entries()
	decoded, err := Decode(Encode(entries))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(entries, decoded) {
		t.Fatal("round trip changed entries")
	}
	// Empty index round-trips too.
	if got, err := Decode(Encode(nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty round trip: %v %v", got, err)
	}
}

func TestCodecRejectsCorruption(t *testing.T) {
	data := Encode(synthIndex(5).Entries())
	for _, tc := range []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"bit-flip", func(b []byte) []byte { b[10] ^= 0xff; return b }},
		{"bad-magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"empty", func(b []byte) []byte { return nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cp := append([]byte(nil), data...)
			if _, err := Decode(tc.mut(cp)); err == nil {
				t.Fatal("corrupted index decoded without error")
			}
		})
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, IndexFileName)
	x := synthIndex(40)
	if err := x.SaveFile(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	y := New()
	n, err := y.LoadFile(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if n != 40 || y.Len() != 40 {
		t.Fatalf("loaded %d entries, index has %d, want 40", n, y.Len())
	}
	if !reflect.DeepEqual(x.Entries(), y.Entries()) {
		t.Fatal("loaded entries differ from saved")
	}
	// Queries agree after reload.
	probe := synthEntry(3)
	if a, b := x.Query(probe, 7), y.Query(probe, 7); !reflect.DeepEqual(a, b) {
		t.Fatalf("post-reload queries differ\nwas: %+v\nnow: %+v", a, b)
	}
	// Missing file is not an error.
	if n, err := New().LoadFile(filepath.Join(dir, "absent.bin")); n != 0 || err != nil {
		t.Fatalf("missing file: n=%d err=%v", n, err)
	}
	// Corrupt file is an error.
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New().LoadFile(path); err == nil {
		t.Fatal("corrupt file loaded without error")
	}
}

func TestEntriesSortedByID(t *testing.T) {
	x := synthIndex(25)
	es := x.Entries()
	for i := 1; i < len(es); i++ {
		if es[i-1].ID >= es[i].ID {
			t.Fatalf("entries not sorted: %q before %q", es[i-1].ID, es[i].ID)
		}
	}
}
