// Package spatial defines spatial database schemas and instances following
// the model of Segoufin & Vianu: a schema is a finite set of region names and
// an instance maps each name to a compact semi-linear region of the plane.
package spatial

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/geom"
	"repro/internal/region"
)

// Schema is a finite set of region names (the paper's Reg).  The order of the
// names is significant only as a fixed enumeration used when assembling
// orders of the invariant (Theorem 3.2 uses "some fixed order of the region
// names in the schema").
type Schema struct {
	names []string
	index map[string]int
}

// NewSchema creates a schema from the given region names.  Duplicate or empty
// names are rejected.
func NewSchema(names ...string) (*Schema, error) {
	s := &Schema{index: make(map[string]int, len(names))}
	for _, n := range names {
		if n == "" {
			return nil, fmt.Errorf("spatial: empty region name")
		}
		if _, dup := s.index[n]; dup {
			return nil, fmt.Errorf("spatial: duplicate region name %q", n)
		}
		s.index[n] = len(s.names)
		s.names = append(s.names, n)
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error.
func MustSchema(names ...string) *Schema {
	s, err := NewSchema(names...)
	if err != nil {
		panic(err)
	}
	return s
}

// Names returns the region names in schema order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.names))
	copy(out, s.names)
	return out
}

// Size returns the number of region names.
func (s *Schema) Size() int { return len(s.names) }

// Has reports whether the schema contains the given name.
func (s *Schema) Has(name string) bool {
	_, ok := s.index[name]
	return ok
}

// Index returns the schema position of the named region, or -1 when the
// schema has no such region.  A cell's sign vector is indexed by it.
func (s *Schema) Index(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// SortedIndexes returns the schema positions ordered by region name, for
// consumers whose output must not depend on the schema's enumeration.
func (s *Schema) SortedIndexes() []int {
	out := make([]int, len(s.names))
	for i := range out {
		out[i] = i
	}
	slices.SortFunc(out, func(a, b int) int { return strings.Compare(s.names[a], s.names[b]) })
	return out
}

// Instance is a spatial database instance: a mapping from the schema's region
// names to compact regions.
//
// An Instance is valid by construction: Set is the only way a region gets in,
// and it runs the full geometry check, so nothing downstream (core.Open,
// arrangement.Build) checks again.  A region's features must not be mutated
// after Set; content addressing relies on that too.
type Instance struct {
	schema  *Schema
	regions map[string]region.Region
}

// NewInstance creates an instance over the given schema with every region
// empty.
func NewInstance(schema *Schema) *Instance {
	return &Instance{schema: schema, regions: make(map[string]region.Region, schema.Size())}
}

// Build creates an instance from a name→region map; every key must be in the
// schema, and schema names missing from the map get the empty region.
func Build(schema *Schema, regions map[string]region.Region) (*Instance, error) {
	inst := NewInstance(schema)
	for name, r := range regions {
		if err := inst.Set(name, r); err != nil {
			return nil, err
		}
	}
	return inst, nil
}

// MustBuild is Build that panics on error.
func MustBuild(schema *Schema, regions map[string]region.Region) *Instance {
	inst, err := Build(schema, regions)
	if err != nil {
		panic(err)
	}
	return inst
}

// Schema returns the instance's schema.
func (i *Instance) Schema() *Schema { return i.schema }

// Set assigns a region to a name; the name must be in the schema and the
// region must validate.  This is the instance's one validation gate, so
// callers holding raw features pass region.Region{Features: fs} rather than
// checking them first with region.New.
func (i *Instance) Set(name string, r region.Region) error {
	if !i.schema.Has(name) {
		return fmt.Errorf("spatial: region name %q not in schema", name)
	}
	if err := r.Validate(); err != nil {
		return fmt.Errorf("spatial: region %q invalid: %w", name, err)
	}
	i.regions[name] = r
	return nil
}

// Region returns the extent of the named region (empty if unset).
func (i *Instance) Region(name string) region.Region {
	return i.regions[name]
}

// Contains reports whether point p belongs to the named region.  No
// production path locates points; this is the point-location reference the
// tests check sample membership and the tree-walk evaluator against.
func (i *Instance) Contains(name string, p geom.Point) bool {
	return i.regions[name].Contains(p)
}

// PointCount returns the total number of stored coordinate points across all
// regions — the paper's measure of raw data size.
func (i *Instance) PointCount() int {
	n := 0
	for _, r := range i.regions {
		n += r.PointCount()
	}
	return n
}

// FeatureCount returns the number of features (paper: "polygons") across all
// regions.
func (i *Instance) FeatureCount() int {
	n := 0
	for _, r := range i.regions {
		n += len(r.Features)
	}
	return n
}

// RawBytes returns the raw storage size using the paper's accounting: each
// stored point costs bytesPerPoint bytes (Sequoia 2000 uses 20, IGN 18).
func (i *Instance) RawBytes(bytesPerPoint int) int {
	return i.PointCount() * bytesPerPoint
}

// AllConnected reports whether every non-empty region is "connected" in the
// paper's sense, i.e. has a connected boundary.  A sufficient semi-linear
// criterion used here: the region consists of exactly one feature and, if it
// is an area feature, it has no holes.  (A disk, a curve or a point have
// connected boundaries; an annulus or a multi-feature region does not.)
func (i *Instance) AllConnected() bool {
	for _, n := range i.schema.names {
		r := i.regions[n]
		if r.IsEmpty() {
			continue
		}
		if len(r.Features) != 1 {
			return false
		}
		f := r.Features[0]
		if f.Dim == region.Dim2 && len(f.Holes) > 0 {
			return false
		}
	}
	return true
}

// Validate re-runs the full check on every region.  Set has already run it,
// so it passes on any instance; the fuzz oracles call it to confirm that.
func (i *Instance) Validate() error {
	for _, n := range i.schema.names {
		if err := i.regions[n].Validate(); err != nil {
			return fmt.Errorf("region %q: %w", n, err)
		}
	}
	return nil
}

// Summary describes the instance's size in the paper's terms.
type Summary struct {
	Regions  int
	Features int
	Points   int
}

// Summarise returns a Summary of the instance.
func (i *Instance) Summarise() Summary {
	return Summary{Regions: i.schema.Size(), Features: i.FeatureCount(), Points: i.PointCount()}
}

func (s Summary) String() string {
	return fmt.Sprintf("%d regions, %d features, %d points", s.Regions, s.Features, s.Points)
}

// SortedNames returns the schema names sorted lexicographically (useful for
// deterministic reports independent of schema order).
func (i *Instance) SortedNames() []string {
	out := i.schema.Names()
	sort.Strings(out)
	return out
}
