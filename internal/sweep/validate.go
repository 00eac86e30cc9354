// Validation client of the sweep: strict area-feature validation (outer
// ring + holes, every ring simple), in a sweep-backed flavour and a
// brute-force quadratic flavour with identical verdicts.  The quadratic
// checker is kept both as the fast path for the small polygons that
// dominate cartographic data and as the reference the differential fuzz
// target compares the sweep against.
//
// Hole semantics (pinned deliberately, see the geojson tests): a hole must
// be *strictly* inside its outer ring and *strictly* disjoint from every
// other hole — a hole sharing even a single boundary point with the outer
// ring or with another hole is rejected.  RFC 7946 leans on the simple
// features model, where a hole may touch its shell at one point; we reject
// that case because every downstream layer here assumes each face boundary
// is a simple closed curve: the arrangement builder derives cyclic orders at
// vertices from locally disjoint boundaries, and region's point-location
// treats hole boundaries as part of the closed region.  Rejecting the
// tangent case keeps the invariant construction honest, and the verdict is
// a deliberate, tested error ("touches the outer ring …") rather than the
// accident of whichever checker runs first.
package sweep

import (
	"fmt"

	"repro/internal/geom"
)

// quadraticCutoff is the total vertex count up to which ValidateArea uses
// the brute-force checker: at small sizes the sweep's event queue and status
// structure cost more than testing every pair.  On sawtooth rings
// (BenchmarkImportValidation, 2-vCPU Xeon, medians of 3 rounds) the
// quadratic checker takes 8.8µs at 8 vertices, 21µs at 16 and 84µs at 32,
// against the sweep's 26µs, 50µs and 99µs; the sweep wins at 48 (150µs vs
// 172µs) and 64 (208µs vs 312µs).  The crossover thus lies between 32 and
// 48, and typical ~80-vertex cartographic polygons take the sweep.
const quadraticCutoff = 48

// ringPairAllowed reports whether an intersection between edges i < j of the
// ring is the benign one: adjacent edges meeting exactly at their shared
// vertex.
func ringPairAllowed(pg geom.Polygon, i, j int, x geom.Intersection) bool {
	if x.Kind != geom.PointIntersection {
		return false
	}
	n := len(pg.Vertices)
	var shared geom.Point
	switch {
	case j == i+1:
		shared = pg.Vertices[j]
	case i == 0 && j == n-1:
		shared = pg.Vertices[0]
	default:
		return false
	}
	return x.P.Equal(shared)
}

// ValidateArea validates an area feature — outer ring plus holes — picking
// the brute-force checker for small inputs and the sweep for large ones.
// The validated properties:
//
//   - every ring is a simple polygon (≥ 3 vertices, no repeated consecutive
//     vertices, no self-intersection);
//   - no hole edge crosses or touches the outer ring or another hole's edge
//     (strict semantics; see the file comment);
//   - every hole lies strictly inside the outer ring and strictly outside
//     every other hole.
func ValidateArea(outer geom.Polygon, holes []geom.Polygon) error {
	total := len(outer.Vertices)
	for _, h := range holes {
		total += len(h.Vertices)
	}
	if total <= quadraticCutoff {
		return ValidateAreaQuadratic(outer, holes)
	}
	return ValidateAreaSweep(outer, holes)
}

// ValidateAreaSweep is ValidateArea's sweep-backed implementation: one
// O((n+k) log n) pass detects every forbidden edge intersection (stopping at
// the first), and the rank query at each hole's leftmost vertex settles
// containment by Jordan parity — an odd number of boundary segments passing
// strictly below means "inside the outer ring and inside no other hole",
// with no pairwise containment tests.
func ValidateAreaSweep(outer geom.Polygon, holes []geom.Polygon) error {
	if err := ringBasics(outer, holes); err != nil {
		return err
	}
	rings := make([]geom.Polygon, 0, len(holes)+1)
	rings = append(rings, outer)
	rings = append(rings, holes...)

	type ref struct{ ring, pos int }
	var segs []geom.Segment
	var refs []ref
	for r, pg := range rings {
		n := len(pg.Vertices)
		for i := 0; i < n; i++ {
			segs = append(segs, geom.Segment{A: pg.Vertices[i], B: pg.Vertices[(i+1)%n]})
			refs = append(refs, ref{r, i})
		}
	}

	var verr error
	sw := newSweeper(segs, func(p Pair) bool {
		a, b := refs[p.I], refs[p.J]
		if a.ring == b.ring {
			if ringPairAllowed(rings[a.ring], a.pos, b.pos, p.X) {
				return true
			}
			verr = notSimpleErr(a.ring)
			return false
		}
		verr = crossRingErr(a.ring, b.ring, segs[p.I], segs[p.J], p.X)
		return false
	})
	counts := make([]int, len(holes))
	for h := range holes {
		sw.addQuery(lexMinVertex(holes[h]), &counts[h])
	}
	sw.run()
	if verr != nil {
		return verr
	}
	for h := range holes {
		if counts[h]%2 != 1 {
			return holeDepthErr(outer, holes, h)
		}
	}
	return nil
}

// ValidateAreaQuadratic is the brute-force implementation, verdict-
// equivalent to ValidateAreaSweep: every ring simple, every cross-ring edge
// pair disjoint, every hole's representative vertex strictly inside the
// outer ring and outside the other holes (with no edge intersections, one
// vertex speaks for the whole hole).
func ValidateAreaQuadratic(outer geom.Polygon, holes []geom.Polygon) error {
	if err := ringBasics(outer, holes); err != nil {
		return err
	}
	if !outer.IsSimple() {
		return notSimpleErr(0)
	}
	for i, h := range holes {
		if !h.IsSimple() {
			return notSimpleErr(i + 1)
		}
	}
	rings := make([]geom.Polygon, 0, len(holes)+1)
	rings = append(rings, outer)
	rings = append(rings, holes...)
	edges := make([][]geom.Segment, len(rings))
	for r, pg := range rings {
		edges[r] = pg.Edges()
	}
	for r1 := 0; r1 < len(rings); r1++ {
		for r2 := r1 + 1; r2 < len(rings); r2++ {
			for _, e1 := range edges[r1] {
				for _, e2 := range edges[r2] {
					if x := geom.SegmentIntersection(e1, e2); x.Kind != geom.NoIntersection {
						return crossRingErr(r1, r2, e1, e2, x)
					}
				}
			}
		}
	}
	for h := range holes {
		rep := lexMinVertex(holes[h])
		inside := outer.Locate(rep) == geom.Inside
		if inside {
			for j := range holes {
				if j != h && holes[j].Locate(rep) == geom.Inside {
					inside = false
					break
				}
			}
		}
		if !inside {
			return holeDepthErr(outer, holes, h)
		}
	}
	return nil
}

// ringBasics rejects rings too small or with zero-length edges (which the
// sweep would otherwise silently skip).
func ringBasics(outer geom.Polygon, holes []geom.Polygon) error {
	check := func(name string, pg geom.Polygon) error {
		n := len(pg.Vertices)
		if n < 3 {
			return fmt.Errorf("%s has %d vertices, need at least 3", name, n)
		}
		for i, v := range pg.Vertices {
			if v.Equal(pg.Vertices[(i+1)%n]) {
				return fmt.Errorf("%s repeats consecutive vertex %s", name, v)
			}
		}
		return nil
	}
	if err := check("outer boundary", outer); err != nil {
		return err
	}
	for i, h := range holes {
		if err := check(fmt.Sprintf("hole %d", i), h); err != nil {
			return err
		}
	}
	return nil
}

func notSimpleErr(ring int) error {
	if ring == 0 {
		return fmt.Errorf("outer boundary is not a simple polygon")
	}
	return fmt.Errorf("hole %d is not a simple polygon", ring-1)
}

// crossRingErr renders a forbidden intersection between edges of two
// different rings (r1 < r2; ring 0 is the outer boundary), distinguishing a
// proper crossing from the deliberate rejection of a single shared boundary
// point.
func crossRingErr(r1, r2 int, e1, e2 geom.Segment, x geom.Intersection) error {
	if r1 > r2 {
		r1, r2 = r2, r1
		e1, e2 = e2, e1
	}
	properCross := x.Kind == geom.PointIntersection &&
		e1.ContainsInterior(x.P) && e2.ContainsInterior(x.P)
	if r1 == 0 {
		h := r2 - 1
		switch {
		case x.Kind == geom.OverlapIntersection:
			return fmt.Errorf("hole %d: edge %s lies along the outer ring", h, e2)
		case properCross:
			return fmt.Errorf("hole %d: edge %s crosses the outer ring at %s", h, e2, x.P)
		default:
			return fmt.Errorf("hole %d: touches the outer ring at %s (a hole sharing even a single boundary point with the outer ring is rejected)", h, x.P)
		}
	}
	hi, hj := r2-1, r1-1
	if x.Kind == geom.OverlapIntersection || properCross {
		return fmt.Errorf("hole %d: overlaps hole %d", hi, hj)
	}
	return fmt.Errorf("hole %d: touches hole %d at %s (holes sharing even a single boundary point are rejected)", hi, hj, x.P)
}

// holeDepthErr explains why a hole with even crossing parity is invalid:
// either it escaped the outer ring or it sits inside another hole.  The
// (quadratic) Locate calls run only on this error path.
func holeDepthErr(outer geom.Polygon, holes []geom.Polygon, h int) error {
	rep := lexMinVertex(holes[h])
	if outer.Locate(rep) != geom.Inside {
		return fmt.Errorf("hole %d: vertex %s not strictly inside the outer boundary", h, rep)
	}
	for j := range holes {
		if j != h && holes[j].Locate(rep) == geom.Inside {
			return fmt.Errorf("hole %d: nested inside hole %d", h, j)
		}
	}
	return fmt.Errorf("hole %d: not strictly inside the outer boundary", h)
}

// lexMinVertex returns the lexicographically smallest vertex of the ring —
// the point where the sweep answers the ring's containment parity (none of
// the ring's own edges are in the status yet when the sweep reaches it).
func lexMinVertex(pg geom.Polygon) geom.Point {
	best := pg.Vertices[0]
	for _, v := range pg.Vertices[1:] {
		if geom.CmpXY(v, best) < 0 {
			best = v
		}
	}
	return best
}
