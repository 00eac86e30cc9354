package arrangement

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

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

	// vertexFace[v] is, for isolated vertices, the face containing them.
	vertexFace map[int]int

	// Sweep-order location state: non-isolated vertices per x column in
	// ascending y, and the resolved face of every cycle.
	cols      map[rat.Key][]int
	cycleFace []int

	// Sign classes in schema order (filled by classify).
	vertexSign [][]Sign
	segSign    [][]Sign // per sub-segment
	faceSign   [][]Sign
}

type cycleInfo struct {
	id        int
	halfEdges []int
	area2     rat.R      // twice the signed area
	rep       geom.Point // a point inside the face left of the cycle; set for positive cycles
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
		if c.area2.Sign() > 0 {
			if c.rep, err = fc.sweepRep(c); err != nil {
				return nil, err
			}
		}
	}
	fc.addFaces()
	fc.assignBySweepOrder()
	fc.recordHalfEdgeFaces()
	for _, v := range sub.isolatedCandidates {
		if len(fc.vertexOut[v]) == 0 {
			fc.vertexFace[v] = fc.resolveBelow(sub.points[v])
		}
	}
	return fc, nil
}

// traceCycles builds the rotation system on the subdivision and traces its
// boundary cycles.
func traceCycles(sub *subdivision) (*fullComplex, error) {
	fc := &fullComplex{sub: sub, vertexFace: make(map[int]int)}
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
		tw := twin(h)
		pos := -1
		for i, o := range out {
			if o == tw {
				pos = i
				break
			}
		}
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
		c.area2 = fc.cycleArea2(c)
		fc.cycles = append(fc.cycles, c)
	}
	return fc, nil
}

// addFaces creates one bounded face per positive-area cycle, represented by
// the cycle's rep, plus the exterior face.
func (fc *fullComplex) addFaces() {
	for _, c := range fc.cycles {
		if c.area2.Sign() > 0 {
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
// order.  For an event point p, sub.below[p.Key()] names the non-vertical
// input segment whose supporting line passed strictly below p when the
// sweep reached it.  The obstruction directly below p is either a
// point strictly inside a sub-segment of that segment, or a subdivision
// vertex in p's own x column — the column covers what the status cannot see:
// vertical segments (never in the status) and segments removed at an earlier
// event with the same x.  Whichever candidate is higher is the true blocker,
// and the face immediately below p is the face above it.

// buildColumns indexes the non-isolated vertices by x coordinate, each
// column sorted by ascending y.
func (fc *fullComplex) buildColumns() {
	fc.cols = make(map[rat.Key][]int)
	for v := range fc.vertexOut {
		if len(fc.vertexOut[v]) == 0 {
			continue
		}
		k := fc.sub.points[v].X.Key()
		fc.cols[k] = append(fc.cols[k], v)
	}
	for _, col := range fc.cols {
		slices.SortFunc(col, func(v, w int) int { return fc.sub.points[v].Y.Cmp(fc.sub.points[w].Y) })
	}
}

// blockerCycle returns the id of the cycle bounding the face directly below
// p, or -1 when a downward ray from p escapes to infinity.  p must be an
// event point of the sweep not lying on any sub-segment interior above the
// blocker (hole-cycle lex-min vertices and isolated vertices qualify).
func (fc *fullComplex) blockerCycle(p geom.Point) int {
	sub := fc.sub
	bs := -1
	if b, ok := sub.below[p.Key()]; ok {
		bs = b
	}
	// Highest non-isolated vertex strictly below p in p's column.
	w := -1
	if col, ok := fc.cols[p.X.Key()]; ok {
		i := sort.Search(len(col), func(i int) bool {
			return !sub.points[col[i]].Y.Less(p.Y)
		}) - 1
		if i >= 0 {
			w = col[i]
		}
	}
	switch {
	case bs < 0 && w < 0:
		return -1
	case bs >= 0 && (w < 0 || sub.points[w].Y.Less(sub.inputSegs[bs].YAt(p.X))):
		// The blocker lies strictly inside a sub-segment of bs, whose even
		// half-edge runs left to right; the face above is on its left.
		return fc.heCycle[2*sub.subSegAt(bs, p)]
	default:
		// The blocker is vertex w.  w has no upward edge (its target would
		// be a column vertex contradicting w's maximality, or a vertex in
		// the edge's interior), so the upward direction, towards p, lies
		// strictly inside one of w's angular sectors.
		return fc.sectorCycle(w, p)
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
	origin := fc.sub.points[v]
	best := -1
	for _, h := range out {
		if cmpDirection(origin, fc.sub.points[fc.heTarget[h]], q) < 0 {
			best = h
		} else {
			break
		}
	}
	if best < 0 {
		best = out[len(out)-1]
	}
	return fc.heCycle[best]
}

// lexMinVertex returns the lexicographically smallest origin vertex on the
// cycle.
func (fc *fullComplex) lexMinVertex(c *cycleInfo) int {
	best := fc.heOrigin[c.halfEdges[0]]
	for _, h := range c.halfEdges[1:] {
		v := fc.heOrigin[h]
		if geom.CmpXY(fc.sub.points[v], fc.sub.points[best]) < 0 {
			best = v
		}
	}
	return best
}

// assignBySweepOrder assigns every hole-like cycle (area <= 0: the clockwise
// outer walk of a connected component) to its containing face from the sweep
// order.  Each such cycle is linked to the cycle directly below its lex-min
// vertex; since a blocker is always lexicographically smaller than the point
// it blocks, the links are acyclic and resolve to a positive cycle's face or
// to the exterior.
func (fc *fullComplex) assignBySweepOrder() {
	fc.buildColumns()
	links := make([]int, len(fc.cycles))
	fc.cycleFace = make([]int, len(fc.cycles))
	for _, c := range fc.cycles {
		links[c.id] = -1
		fc.cycleFace[c.id] = -1
		if c.area2.Sign() > 0 {
			fc.cycleFace[c.id] = c.face
			continue
		}
		links[c.id] = fc.blockerCycle(fc.sub.points[fc.lexMinVertex(c)])
	}
	var resolve func(cid int) int
	resolve = func(cid int) int {
		if cid < 0 {
			return fc.exteriorFace
		}
		if fc.cycleFace[cid] < 0 {
			fc.cycleFace[cid] = resolve(links[cid])
		}
		return fc.cycleFace[cid]
	}
	for _, c := range fc.cycles {
		if c.area2.Sign() > 0 {
			continue
		}
		c.face = resolve(c.id)
	}
}

// sweepRep returns a point strictly inside the bounded face left of a
// positive cycle.  It takes a non-vertical half-edge of the cycle and the
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
	return geom.Point{}, fmt.Errorf("arrangement: positive cycle %d has no non-vertical edge", c.id)
}

// resolveBelow returns the face containing the isolated vertex at p.  It
// must run after assignBySweepOrder, which resolves every cycle's face.
func (fc *fullComplex) resolveBelow(p geom.Point) int {
	cid := fc.blockerCycle(p)
	if cid < 0 {
		return fc.exteriorFace
	}
	return fc.cycleFace[cid]
}

// cycleArea2 returns twice the signed area of the closed polygonal curve
// traced by the cycle.
func (fc *fullComplex) cycleArea2(c *cycleInfo) rat.R {
	sum := rat.Zero
	for _, h := range c.halfEdges {
		a := fc.sub.points[fc.heOrigin[h]]
		b := fc.sub.points[fc.heTarget[h]]
		sum = sum.Add(a.X.Mul(b.Y).Sub(b.X.Mul(a.Y)))
	}
	return sum
}

// exteriorRep returns a point guaranteed to lie in the unbounded face.
func (fc *fullComplex) exteriorRep() geom.Point {
	if len(fc.sub.points) == 0 {
		return geom.Pt(0, 0)
	}
	b := geom.BoxAround(fc.sub.points...)
	return geom.PtR(b.MaxX.Add(rat.One), b.MaxY.Add(rat.One))
}
