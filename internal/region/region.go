// Package region implements compact semi-linear regions of the plane.
//
// The paper's spatial model maps region names to compact (closed and bounded)
// subsets of R² specified by Boolean combinations of polynomial inequalities
// with rational coefficients.  Theorem 2.2 of the paper guarantees every such
// instance is topologically equivalent to a *linear* one, so this library
// represents regions semi-linearly: a region is a finite union of features,
// each of dimension 0 (a point), 1 (a polyline) or 2 (a simple polygon,
// possibly with polygonal holes).  This substitution for the paper's
// polynomial constraints preserves all topological content.
package region

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/rat"
	"repro/internal/sweep"
)

// Dimension is the topological dimension of a feature.
type Dimension int

const (
	// Dim0 is a point feature.
	Dim0 Dimension = iota
	// Dim1 is a curve (polyline) feature.
	Dim1
	// Dim2 is an areal (polygon) feature.
	Dim2
)

func (d Dimension) String() string {
	switch d {
	case Dim0:
		return "point"
	case Dim1:
		return "line"
	case Dim2:
		return "area"
	default:
		return fmt.Sprintf("dim(%d)", int(d))
	}
}

// Feature is one connected piece of a region.
type Feature struct {
	Dim Dimension
	// Point is set for Dim0 features.
	Point geom.Point
	// Line is set for Dim1 features.
	Line geom.Polyline
	// Outer is set for Dim2 features; Holes are optional inner boundaries
	// strictly inside Outer and pairwise disjoint.
	Outer geom.Polygon
	Holes []geom.Polygon
}

// PointFeature returns a dimension-0 feature.
func PointFeature(p geom.Point) Feature { return Feature{Dim: Dim0, Point: p} }

// LineFeature returns a dimension-1 feature.
func LineFeature(pl geom.Polyline) Feature { return Feature{Dim: Dim1, Line: pl} }

// AreaFeature returns a dimension-2 feature with optional holes.
func AreaFeature(outer geom.Polygon, holes ...geom.Polygon) Feature {
	return Feature{Dim: Dim2, Outer: outer, Holes: holes}
}

// Validate checks the internal consistency of the feature.
func (f Feature) Validate() error {
	switch f.Dim {
	case Dim0:
		return nil
	case Dim1:
		if len(f.Line.Points) < 2 {
			return fmt.Errorf("region: line feature with %d points", len(f.Line.Points))
		}
		return nil
	case Dim2:
		if len(f.Outer.Vertices) < 3 {
			return fmt.Errorf("region: area feature with %d outer vertices", len(f.Outer.Vertices))
		}
		// Ring simplicity and strict hole containment (holes strictly
		// inside the outer ring, pairwise strictly disjoint — a shared
		// boundary point is rejected) via the sweep-line checker, which
		// stays O((n+k) log n) where the old per-pair scan was quadratic.
		if err := sweep.ValidateArea(f.Outer, f.Holes); err != nil {
			return fmt.Errorf("region: %w", err)
		}
		return nil
	default:
		return fmt.Errorf("region: unknown dimension %d", f.Dim)
	}
}

// BoundarySegments returns the segments making up the topological boundary of
// the feature.  For a point feature it returns nil (the boundary is the point
// itself, reported by BoundaryPoints).
func (f Feature) BoundarySegments() []geom.Segment {
	switch f.Dim {
	case Dim0:
		return nil
	case Dim1:
		return f.Line.Segments()
	case Dim2:
		segs := f.Outer.Edges()
		for _, h := range f.Holes {
			segs = append(segs, h.Edges()...)
		}
		return segs
	default:
		return nil
	}
}

// BoundaryPoints returns isolated points contributed to the boundary (only
// for dimension-0 features).
func (f Feature) BoundaryPoints() []geom.Point {
	if f.Dim == Dim0 {
		return []geom.Point{f.Point}
	}
	return nil
}

// Contains reports whether p belongs to the (closed) feature.
func (f Feature) Contains(p geom.Point) bool {
	switch f.Dim {
	case Dim0:
		return f.Point.Equal(p)
	case Dim1:
		for _, s := range f.Line.Segments() {
			if s.ContainsPoint(p) {
				return true
			}
		}
		return false
	case Dim2:
		if f.Outer.Locate(p) == geom.Outside {
			return false
		}
		for _, h := range f.Holes {
			if h.Locate(p) == geom.Inside {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// ContainsInterior reports whether p belongs to the topological interior of
// the feature (always false for dimension 0 and 1 features, whose interior in
// R² is empty).
func (f Feature) ContainsInterior(p geom.Point) bool {
	if f.Dim != Dim2 {
		return false
	}
	if f.Outer.Locate(p) != geom.Inside {
		return false
	}
	for _, h := range f.Holes {
		if h.Locate(p) != geom.Outside {
			return false
		}
	}
	return true
}

// PointCount returns the number of coordinate points used to represent the
// feature (the paper's raw-size unit: a stored point).
func (f Feature) PointCount() int {
	switch f.Dim {
	case Dim0:
		return 1
	case Dim1:
		return len(f.Line.Points)
	case Dim2:
		n := len(f.Outer.Vertices)
		for _, h := range f.Holes {
			n += len(h.Vertices)
		}
		return n
	default:
		return 0
	}
}

// Region is a compact semi-linear region: a finite union of features.
// The zero value is the empty region.
type Region struct {
	Features []Feature
}

// New constructs a region from features, validating each.
func New(features ...Feature) (Region, error) {
	for i, f := range features {
		if err := f.Validate(); err != nil {
			return Region{}, fmt.Errorf("feature %d: %w", i, err)
		}
	}
	cp := make([]Feature, len(features))
	copy(cp, features)
	return Region{Features: cp}, nil
}

// Must is New that panics on error.
func Must(features ...Feature) Region {
	r, err := New(features...)
	if err != nil {
		panic(err)
	}
	return r
}

// FromPolygon returns the region consisting of a single filled simple polygon.
func FromPolygon(pg geom.Polygon) Region { return Must(AreaFeature(pg)) }

// FromPolygonWithHoles returns a filled polygon with holes.
func FromPolygonWithHoles(outer geom.Polygon, holes ...geom.Polygon) Region {
	return Must(AreaFeature(outer, holes...))
}

// FromPolyline returns the region consisting of a single curve.
func FromPolyline(pl geom.Polyline) Region { return Must(LineFeature(pl)) }

// FromPoint returns the region consisting of a single point.
func FromPoint(p geom.Point) Region { return Must(PointFeature(p)) }

// Rect returns a filled axis-aligned rectangle region.
func Rect(minX, minY, maxX, maxY int64) Region {
	return FromPolygon(geom.Rect(minX, minY, maxX, maxY))
}

// Annulus returns a square annulus: the outer rectangle minus an inner
// rectangular hole (a region whose single face has one hole).
func Annulus(minX, minY, maxX, maxY, inset int64) Region {
	return FromPolygonWithHoles(
		geom.Rect(minX, minY, maxX, maxY),
		geom.Rect(minX+inset, minY+inset, maxX-inset, maxY-inset),
	)
}

// IsEmpty reports whether the region has no features.
func (r Region) IsEmpty() bool { return len(r.Features) == 0 }

// Validate checks all features.
func (r Region) Validate() error {
	for i, f := range r.Features {
		if err := f.Validate(); err != nil {
			return fmt.Errorf("feature %d: %w", i, err)
		}
	}
	return nil
}

// Contains reports whether p belongs to the closed region.  It is the
// tests' point-location reference (pointfo's tree walk and arrangement's
// reference build); no production path calls it.
func (r Region) Contains(p geom.Point) bool {
	for _, f := range r.Features {
		if f.Contains(p) {
			return true
		}
	}
	return false
}

// ContainsInterior reports whether p belongs to the interior of the region
// in R² (i.e. to the interior of some area feature and not to any other
// feature's constraints).  For semi-linear unions this is the union of the
// feature interiors.  Like Contains, it is the tests' point-location
// reference.
func (r Region) ContainsInterior(p geom.Point) bool {
	for _, f := range r.Features {
		if f.ContainsInterior(p) {
			return true
		}
	}
	return false
}

// OnBoundary reports whether p is on the topological boundary of the region:
// it belongs to the region but not to its interior, or it is a boundary point
// of an area feature.  Like Contains, it is the tests' point-location
// reference.
func (r Region) OnBoundary(p geom.Point) bool {
	return r.Contains(p) && !r.ContainsInterior(p)
}

// BoundarySegments returns all boundary segments of the region (area feature
// rings and curve features).
func (r Region) BoundarySegments() []geom.Segment {
	var out []geom.Segment
	for _, f := range r.Features {
		out = append(out, f.BoundarySegments()...)
	}
	return out
}

// IsolatedPoints returns the dimension-0 features' points.
func (r Region) IsolatedPoints() []geom.Point {
	var out []geom.Point
	for _, f := range r.Features {
		out = append(out, f.BoundaryPoints()...)
	}
	return out
}

// PointCount returns the total number of stored coordinate points, the
// paper's unit for raw data size.
func (r Region) PointCount() int {
	n := 0
	for _, f := range r.Features {
		n += f.PointCount()
	}
	return n
}

// MaxDimension returns the largest feature dimension present (Dim0 for the
// empty region).
func (r Region) MaxDimension() Dimension {
	max := Dim0
	for _, f := range r.Features {
		if f.Dim > max {
			max = f.Dim
		}
	}
	return max
}

// Translate returns the region translated by vector (dx, dy).
func (r Region) Translate(dx, dy rat.R) Region {
	shift := func(p geom.Point) geom.Point { return geom.PtR(p.X.Add(dx), p.Y.Add(dy)) }
	return r.mapPoints(shift)
}

// Scale returns the region scaled about the origin by factor k (k must be
// nonzero to preserve topology).
func (r Region) Scale(k rat.R) Region {
	if k.Sign() == 0 {
		panic("region: scale factor must be nonzero")
	}
	return r.mapPoints(func(p geom.Point) geom.Point { return p.Scale(k) })
}

// ReflectX returns the region reflected across the y-axis (x -> -x).  This is
// a homeomorphism of the plane, so it preserves all topological properties —
// used in tests for topological invariance.
func (r Region) ReflectX() Region {
	return r.mapPoints(func(p geom.Point) geom.Point { return geom.PtR(p.X.Neg(), p.Y) })
}

func (r Region) mapPoints(m func(geom.Point) geom.Point) Region {
	out := Region{Features: make([]Feature, len(r.Features))}
	for i, f := range r.Features {
		nf := Feature{Dim: f.Dim}
		switch f.Dim {
		case Dim0:
			nf.Point = m(f.Point)
		case Dim1:
			pts := make([]geom.Point, len(f.Line.Points))
			for j, p := range f.Line.Points {
				pts[j] = m(p)
			}
			nf.Line = geom.Polyline{Points: pts}
		case Dim2:
			ov := make([]geom.Point, len(f.Outer.Vertices))
			for j, p := range f.Outer.Vertices {
				ov[j] = m(p)
			}
			nf.Outer = geom.Polygon{Vertices: ov}
			nf.Holes = make([]geom.Polygon, len(f.Holes))
			for k, h := range f.Holes {
				hv := make([]geom.Point, len(h.Vertices))
				for j, p := range h.Vertices {
					hv[j] = m(p)
				}
				nf.Holes[k] = geom.Polygon{Vertices: hv}
			}
		}
		out.Features[i] = nf
	}
	return out
}
