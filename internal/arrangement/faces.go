package arrangement

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/geom"
	"repro/internal/rat"
)

// fullComplex is the full (unreduced) planar subdivision together with its
// rotation system, traced faces and, after classify(), per-cell sign classes.
type fullComplex struct {
	sub *subdivision

	// Half-edge k belongs to sub-segment k/2; even k is oriented a→b, odd k
	// is b→a.
	heOrigin []int
	heTarget []int
	heNext   []int
	heCycle  []int
	heFace   []int

	// vertexOut[v] lists the outgoing half-edges at v in counterclockwise
	// angular order.
	vertexOut [][]int

	cycles []*cycleInfo
	faces  []*fullFace

	exteriorFace int

	// vertexFace[v] is, for isolated vertices, the face containing them;
	// sorted lists the other vertices in lexicographic order.
	vertexFace []int
	sorted     []int

	// Sign classes in schema order (filled by classify).
	vertexSign [][]Sign
	segSign    [][]Sign // per sub-segment
	faceSign   [][]Sign
}

type cycleInfo struct {
	id        int
	halfEdges []int
	lexMin    int        // the lexicographically smallest origin vertex
	bounded   bool       // the cycle is the outer boundary of the bounded face left of it
	rep       geom.Point // a point inside the face left of the cycle; set for bounded cycles
	face      int        // assigned face
}

type fullFace struct {
	id       int
	exterior bool
	rep      geom.Point
}

func twin(h int) int { return h ^ 1 }

func segOf(h int) int { return h / 2 }

// cmpDirection orders the directions from o to p and from o to q
// counterclockwise starting from the positive x-axis.  p and q must differ
// from o, and the directions are equal only when p == q (the subdivision
// guarantees that at each vertex).
func cmpDirection(o, p, q geom.Point) int {
	if h1, h2 := dirHalf(o, p), dirHalf(o, q); h1 != h2 {
		return cmp.Compare(h1, h2)
	}
	// Same half-plane: p comes first iff the turn from p to q is CCW.
	return -geom.Orientation(o, p, q)
}

// dirHalf returns 0 when the direction from o to p lies in the upper
// half-plane (y > 0, or y == 0 and x > 0) and 1 when it lies in the lower.
func dirHalf(o, p geom.Point) int {
	switch p.Y.Cmp(o.Y) {
	case 1:
		return 0
	case -1:
		return 1
	default:
		if p.X.Cmp(o.X) > 0 {
			return 0
		}
		return 1
	}
}

// traceFaces builds the rotation system on the subdivision, traces the
// boundary cycles and faces of the planar subdivision, and locates every
// hole cycle and isolated vertex in its face from the sweep order.
func traceFaces(sub *subdivision) (*fullComplex, error) {
	fc, err := traceCycles(sub)
	if err != nil {
		return nil, err
	}
	for _, c := range fc.cycles {
		if c.bounded {
			if c.rep, err = fc.sweepRep(c); err != nil {
				return nil, err
			}
		}
	}
	fc.addFaces()
	if err := fc.assignBySweepOrder(); err != nil {
		return nil, err
	}
	fc.recordHalfEdgeFaces()
	for _, v := range sub.isolatedCandidates {
		if len(fc.vertexOut[v]) == 0 {
			if fc.vertexFace[v], err = fc.faceBelow(sub.points[v]); err != nil {
				return nil, err
			}
		}
	}
	return fc, nil
}

// traceCycles builds the rotation system on the subdivision and traces its
// boundary cycles.
func traceCycles(sub *subdivision) (*fullComplex, error) {
	fc := &fullComplex{sub: sub, vertexFace: make([]int, len(sub.points))}
	nHE := 2 * len(sub.segments)
	fc.heOrigin = make([]int, nHE)
	fc.heTarget = make([]int, nHE)
	fc.heNext = make([]int, nHE)
	fc.heCycle = make([]int, nHE)
	fc.heFace = make([]int, nHE)
	for i := range fc.heCycle {
		fc.heCycle[i] = -1
		fc.heFace[i] = -1
	}
	fc.vertexOut = make([][]int, len(sub.points))

	for i, s := range sub.segments {
		fc.heOrigin[2*i], fc.heTarget[2*i] = s.a, s.b
		fc.heOrigin[2*i+1], fc.heTarget[2*i+1] = s.b, s.a
		fc.vertexOut[s.a] = append(fc.vertexOut[s.a], 2*i)
		fc.vertexOut[s.b] = append(fc.vertexOut[s.b], 2*i+1)
	}

	// Sort outgoing half-edges counterclockwise at each vertex.
	for v := range fc.vertexOut {
		out := fc.vertexOut[v]
		origin := sub.points[v]
		slices.SortFunc(out, func(h1, h2 int) int {
			return cmpDirection(origin, sub.points[fc.heTarget[h1]], sub.points[fc.heTarget[h2]])
		})
	}

	// next(h): at the head vertex of h, take the outgoing half-edge
	// immediately clockwise of twin(h).  This traces faces with their
	// interior on the left of every half-edge.
	for h := 0; h < nHE; h++ {
		v := fc.heTarget[h]
		out := fc.vertexOut[v]
		pos := slices.Index(out, twin(h))
		if pos < 0 {
			return nil, fmt.Errorf("arrangement: twin half-edge not found at vertex %d", v)
		}
		fc.heNext[h] = out[(pos-1+len(out))%len(out)]
	}

	// Trace cycles.
	for h := 0; h < nHE; h++ {
		if fc.heCycle[h] >= 0 {
			continue
		}
		c := &cycleInfo{id: len(fc.cycles)}
		cur := h
		for {
			fc.heCycle[cur] = c.id
			c.halfEdges = append(c.halfEdges, cur)
			cur = fc.heNext[cur]
			if cur == h {
				break
			}
		}
		fc.orient(c)
		fc.cycles = append(fc.cycles, c)
	}
	return fc, nil
}

// orient sets the cycle's lexicographically smallest origin vertex v, and
// whether it bounds a bounded face: iff every visit of v is a strict left
// turn.  At a visit, half-edge h leaves v after its predecessor h_in, and
// the face's corner runs counterclockwise from h to the reverse of h_in.
// Both edges point right of v or straight up, so the corner holds the
// direction straight left of v exactly when h_in is not strictly
// counterclockwise of h, as when the two coincide at an antenna tip.  That
// direction lies outside every bounded face the cycle encloses, and on the
// unbounded side of a component's outer walk, whose v is the component's
// lowest vertex.
func (fc *fullComplex) orient(c *cycleInfo) {
	pts := fc.sub.points
	c.lexMin = fc.heOrigin[c.halfEdges[0]]
	for _, h := range c.halfEdges[1:] {
		if v := fc.heOrigin[h]; geom.CmpXY(pts[v], pts[c.lexMin]) < 0 {
			c.lexMin = v
		}
	}
	v := pts[c.lexMin]
	in := c.halfEdges[len(c.halfEdges)-1]
	for _, h := range c.halfEdges {
		if fc.heOrigin[h] == c.lexMin && geom.Orientation(v, pts[fc.heTarget[h]], pts[fc.heOrigin[in]]) <= 0 {
			return
		}
		in = h
	}
	c.bounded = true
}

// addFaces creates one bounded face per bounded cycle, represented by the
// cycle's rep, plus the exterior face.
func (fc *fullComplex) addFaces() {
	for _, c := range fc.cycles {
		if c.bounded {
			f := &fullFace{id: len(fc.faces), rep: c.rep}
			c.face = f.id
			fc.faces = append(fc.faces, f)
		}
	}
	ext := &fullFace{id: len(fc.faces), exterior: true, rep: fc.exteriorRep()}
	fc.faces = append(fc.faces, ext)
	fc.exteriorFace = ext.id
}

// recordHalfEdgeFaces records the face of every half-edge, once every cycle
// has been assigned its face.
func (fc *fullComplex) recordHalfEdgeFaces() {
	for h := range fc.heFace {
		fc.heFace[h] = fc.cycles[fc.heCycle[h]].face
	}
}

// --- sweep-order location ---------------------------------------------------
//
// Hole cycles and isolated vertices are located from the sweep's status
// order.  For an event point p that nothing passes through, ends at or
// reaches from below, sub.below[p.Key()] names the non-vertical input
// segment whose supporting line passed strictly below p when the sweep
// reached it.  The obstruction directly below p is a point strictly inside a
// sub-segment of that segment or, if higher, a subdivision vertex in p's own
// x column: the column covers what the status cannot see, vertical segments
// and segments removed at an earlier event with the same x.

// faceBelow returns the face directly below p, which is the face above its
// obstruction, or the exterior when a downward ray from p escapes to
// infinity.  p is a hole-like cycle's lex-min vertex or an isolated vertex,
// and the face of the cycle bounding the obstruction must already be set.
func (fc *fullComplex) faceBelow(p geom.Point) (int, error) {
	sub := fc.sub
	bs, ok := sub.below[p.Key()]
	if !ok {
		return -1, fmt.Errorf("arrangement: no sweep record below %v", p)
	}
	// Highest non-isolated vertex strictly below p in p's column: the last
	// one before p in lexicographic order, if it shares p's x.
	w := -1
	i, _ := slices.BinarySearchFunc(fc.sorted, p, func(v int, p geom.Point) int {
		return geom.CmpXY(sub.points[v], p)
	})
	if i > 0 && sub.points[fc.sorted[i-1]].X.Equal(p.X) {
		w = fc.sorted[i-1]
	}
	switch {
	case bs < 0 && w < 0:
		return fc.exteriorFace, nil
	case bs >= 0 && (w < 0 || geom.Orientation(sub.inputSegs[bs].A, sub.inputSegs[bs].B, sub.points[w]) < 0):
		// The blocker lies strictly inside a sub-segment of bs (w, if any, is
		// below bs's canonical, left-to-right segment), whose even half-edge
		// runs left to right; the face above is on its left.
		return fc.cycles[fc.heCycle[2*sub.subSegAt(bs, p)]].face, nil
	default:
		// The blocker is vertex w.  w has no upward edge (its target would
		// be a column vertex contradicting w's maximality, or a vertex in
		// the edge's interior), so the upward direction, towards p, lies
		// strictly inside one of w's angular sectors.
		return fc.cycles[fc.sectorCycle(w, p)].face, nil
	}
}

// sectorCycle returns the cycle owning the angular sector at vertex v that
// contains the direction from v to q, which must not be the direction of an
// incident edge.  The sector swept counterclockwise from an outgoing
// half-edge to its CCW successor belongs to the face left of that half-edge,
// so the owner is the CCW predecessor of that direction among the outgoing
// ones (wrapping around).
func (fc *fullComplex) sectorCycle(v int, q geom.Point) int {
	out := fc.vertexOut[v]
	i, _ := slices.BinarySearchFunc(out, q, func(h int, q geom.Point) int {
		return cmpDirection(fc.sub.points[v], fc.sub.points[fc.heTarget[h]], q)
	})
	return fc.heCycle[out[(i+len(out)-1)%len(out)]]
}

// assignBySweepOrder assigns every hole-like cycle (one that is not
// bounded: the outer walk of a connected component) to the face directly
// below its lex-min vertex, in sweep order.  A blocker is lexicographically
// smaller than the point it blocks, and the outer walks of different
// components have different lex-min vertices, so the blocking cycle is
// either bounded or an earlier hole-like cycle: its face is already set.
func (fc *fullComplex) assignBySweepOrder() error {
	pts := fc.sub.points
	for v, out := range fc.vertexOut {
		if len(out) > 0 {
			fc.sorted = append(fc.sorted, v)
		}
	}
	slices.SortFunc(fc.sorted, func(v, w int) int { return geom.CmpXY(pts[v], pts[w]) })
	holes := slices.DeleteFunc(slices.Clone(fc.cycles), func(c *cycleInfo) bool { return c.bounded })
	slices.SortFunc(holes, func(c, d *cycleInfo) int { return geom.CmpXY(pts[c.lexMin], pts[d.lexMin]) })
	for _, c := range holes {
		var err error
		if c.face, err = fc.faceBelow(pts[c.lexMin]); err != nil {
			return err
		}
	}
	return nil
}

// sweepRep returns a point strictly inside the bounded face left of a
// bounded cycle.  It takes a non-vertical half-edge of the cycle and the
// sweep's neighbour record for the edge's sub-segment: on the record's open
// x-interval no vertex or vertical segment lies, so at its mid-x the open
// vertical gap between the edge and its nearest neighbour on the face side
// (above for a left-to-right half-edge, below otherwise) lies inside the
// face.  The neighbour exists because the face is bounded.
func (fc *fullComplex) sweepRep(c *cycleInfo) (geom.Point, error) {
	sub := fc.sub
	for _, h := range c.halfEdges {
		s := sub.segments[segOf(h)]
		if sub.points[s.a].X.Equal(sub.points[s.b].X) {
			continue
		}
		src := sub.subSrc[segOf(h)]
		recs := sub.neighbours[src.seg]
		if src.k >= len(recs) || !recs[src.k].X0.Equal(sub.points[s.a].X) {
			return geom.Point{}, fmt.Errorf("arrangement: no sweep neighbour record at %v", sub.points[s.a])
		}
		r := recs[src.k]
		nb := r.Above
		if h%2 == 1 {
			nb = r.Below
		}
		if nb < 0 {
			return geom.Point{}, fmt.Errorf("arrangement: bounded face beside %v has no sweep neighbour", sub.points[s.a])
		}
		x := rat.Mid(r.X0, r.X1)
		return geom.PtR(x, rat.Mid(sub.inputSegs[src.seg].YAt(x), sub.inputSegs[nb].YAt(x))), nil
	}
	return geom.Point{}, fmt.Errorf("arrangement: bounded cycle %d has no non-vertical edge", c.id)
}

// exteriorRep returns a point guaranteed to lie in the unbounded face.
func (fc *fullComplex) exteriorRep() geom.Point {
	if len(fc.sub.points) == 0 {
		return geom.Pt(0, 0)
	}
	b := geom.BoxAround(fc.sub.points...)
	return geom.PtR(b.MaxX.Add(rat.One), b.MaxY.Add(rat.One))
}
