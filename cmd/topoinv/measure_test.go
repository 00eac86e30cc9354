package main

import (
	"testing"

	"repro/topoinv"
)

// TestMeasureRegion checks that measure's query asks about a region that
// has features: on the default land-use map the first two classes are
// empty, so the schema's first name would make the answer a trivial false.
func TestMeasureRegion(t *testing.T) {
	inst, _, _ := buildWorkload("landuse", 1)
	name := measureRegion(inst)
	if name != "class02" {
		t.Errorf("measureRegion(landuse) = %q, want class02", name)
	}
	db, err := topoinv.Open(inst)
	if err != nil {
		t.Fatal(err)
	}
	if ans, err := db.Ask(topoinv.NonEmpty(name), topoinv.Auto); err != nil || !ans {
		t.Errorf("nonempty(%s) = %v, %v; want true", name, ans, err)
	}

	schema := topoinv.MustSchema("A", "B", "C")
	partial := topoinv.MustBuild(schema, map[string]topoinv.Region{"C": topoinv.Rect(0, 0, 4, 4)})
	if got := measureRegion(partial); got != "C" {
		t.Errorf("measureRegion = %q, want C (the only region with features)", got)
	}
	empty := topoinv.MustBuild(schema, map[string]topoinv.Region{})
	if got := measureRegion(empty); got != "A" {
		t.Errorf("measureRegion of an empty instance = %q, want the first name A", got)
	}
}
