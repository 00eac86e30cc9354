package spatial

import (
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/region"
)

func TestSchema(t *testing.T) {
	s := MustSchema("P", "Q", "R")
	if s.Size() != 3 {
		t.Errorf("Size = %d", s.Size())
	}
	if !s.Has("Q") || s.Has("X") {
		t.Error("Has wrong")
	}
	names := s.Names()
	if len(names) != 3 || names[0] != "P" || names[2] != "R" {
		t.Errorf("Names = %v", names)
	}
	// Mutating the returned slice must not affect the schema.
	names[0] = "Z"
	if s.Names()[0] != "P" {
		t.Error("Names not defensive-copied")
	}
	if _, err := NewSchema("P", "P"); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := NewSchema(""); err == nil {
		t.Error("empty name accepted")
	}
}

func TestSchemaIndexes(t *testing.T) {
	s := MustSchema("water", "forest", "road", "field")
	for i, n := range s.Names() {
		if got := s.Index(n); got != i {
			t.Errorf("Index(%q) = %d, want %d", n, got, i)
		}
	}
	if got := s.Index("lake"); got != -1 {
		t.Errorf("Index of an absent name = %d, want -1", got)
	}
	// field, forest, road, water.
	if got, want := s.SortedIndexes(), []int{3, 1, 2, 0}; !slices.Equal(got, want) {
		t.Errorf("SortedIndexes = %v, want %v", got, want)
	}
	if got := MustSchema().SortedIndexes(); len(got) != 0 {
		t.Errorf("SortedIndexes of the empty schema = %v", got)
	}
}

func TestInstanceBasics(t *testing.T) {
	s := MustSchema("P", "Q")
	inst := NewInstance(s)
	if err := inst.Set("P", region.Rect(0, 0, 4, 4)); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if err := inst.Set("X", region.Rect(0, 0, 1, 1)); err == nil {
		t.Error("Set of unknown name accepted")
	}
	bad := region.Region{Features: []region.Feature{region.AreaFeature(geom.MustPolygon(geom.Pt(0, 0), geom.Pt(4, 4), geom.Pt(4, 0), geom.Pt(0, 4)))}}
	if err := inst.Set("Q", bad); err == nil {
		t.Error("invalid region accepted")
	}
	if !inst.Contains("P", geom.Pt(2, 2)) || inst.Contains("Q", geom.Pt(2, 2)) {
		t.Error("Contains wrong")
	}
	if inst.Region("Q").IsEmpty() != true {
		t.Error("unset region should be empty")
	}
	if inst.Schema() != s {
		t.Error("Schema accessor wrong")
	}
	if got := inst.SortedNames(); len(got) != 2 || got[0] != "P" {
		t.Errorf("SortedNames = %v", got)
	}
}

func TestInstanceMetrics(t *testing.T) {
	s := MustSchema("P", "Q")
	inst := MustBuild(s, map[string]region.Region{
		"P": region.Rect(0, 0, 4, 4),           // 4 points
		"Q": region.Annulus(10, 10, 20, 20, 2), // 8 points
	})
	if inst.PointCount() != 12 {
		t.Errorf("PointCount = %d, want 12", inst.PointCount())
	}
	if inst.FeatureCount() != 2 {
		t.Errorf("FeatureCount = %d, want 2", inst.FeatureCount())
	}
	if inst.RawBytes(20) != 240 {
		t.Errorf("RawBytes = %d, want 240", inst.RawBytes(20))
	}
	sum := inst.Summarise()
	if sum.Regions != 2 || sum.Features != 2 || sum.Points != 12 {
		t.Errorf("Summary = %+v", sum)
	}
	if sum.String() == "" {
		t.Error("Summary String empty")
	}
	if err := inst.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestAllConnected(t *testing.T) {
	s := MustSchema("P", "Q")
	// Single simple polygon per region: connected.
	inst := MustBuild(s, map[string]region.Region{
		"P": region.Rect(0, 0, 4, 4),
		"Q": region.FromPolyline(geom.MustPolyline(geom.Pt(10, 10), geom.Pt(12, 12))),
	})
	if !inst.AllConnected() {
		t.Error("single-feature regions should be connected")
	}
	// A region with a hole has a disconnected boundary.
	inst2 := MustBuild(s, map[string]region.Region{
		"P": region.Annulus(0, 0, 10, 10, 3),
	})
	if inst2.AllConnected() {
		t.Error("annulus should not count as connected")
	}
	// A region with two features is not connected.
	inst3 := MustBuild(s, map[string]region.Region{
		"P": region.Must(
			region.AreaFeature(geom.Rect(0, 0, 2, 2)),
			region.AreaFeature(geom.Rect(5, 5, 7, 7)),
		),
	})
	if inst3.AllConnected() {
		t.Error("two-component region should not count as connected")
	}
	// Empty regions do not break connectivity.
	inst4 := NewInstance(s)
	if !inst4.AllConnected() {
		t.Error("empty instance should count as connected")
	}
}

func TestBuildRejectsUnknownNames(t *testing.T) {
	s := MustSchema("P")
	if _, err := Build(s, map[string]region.Region{"X": region.Rect(0, 0, 1, 1)}); err == nil {
		t.Error("Build accepted a region not in the schema")
	}
	if _, ok := func() (i *Instance, ok bool) {
		defer func() { ok = recover() == nil }()
		i = MustBuild(s, map[string]region.Region{"X": region.Rect(0, 0, 1, 1)})
		return
	}(); ok {
		t.Error("MustBuild should panic on error")
	}
}

// TestSetValidates pins Set as the instance's validation gate: a region built
// from raw, unchecked features is refused there, and the instance keeps no
// trace of it.
func TestSetValidates(t *testing.T) {
	inst := NewInstance(MustSchema("P"))
	bowtie := geom.Polygon{Vertices: []geom.Point{geom.Pt(0, 0), geom.Pt(5, 0), geom.Pt(5, 5), geom.Pt(1, -1)}}
	if err := inst.Set("P", region.Region{Features: []region.Feature{region.AreaFeature(bowtie)}}); err == nil {
		t.Fatal("Set accepted a bowtie polygon")
	}
	if !inst.Region("P").IsEmpty() {
		t.Error("a rejected region was stored")
	}
}
