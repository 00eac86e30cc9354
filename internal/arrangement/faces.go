package arrangement

import (
	"fmt"
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

	isolatedVerts []int
	// vertexFace[v] is, for isolated vertices, the face containing them.
	vertexFace map[int]int

	// Sweep-order location state (only on the sweep path): non-isolated
	// vertices per x column in ascending y, and the resolved face of every
	// cycle.
	cols      map[string][]int
	cycleFace []int

	// Sign classes (filled by classify).
	vertexSign []map[string]Sign
	segSign    []map[string]Sign // per sub-segment
	faceSign   []map[string]Sign
}

type cycleInfo struct {
	id        int
	halfEdges []int
	area2     rat.R // twice the signed area
	rep       geom.Point
	repOK     bool
	face      int // assigned face
}

type fullFace struct {
	id       int
	exterior bool
	rep      geom.Point
	cycles   []int
	isolated []int
	outer    int // cycle id of the outer boundary (-1 for the exterior face)
}

func twin(h int) int { return h ^ 1 }

func segOf(h int) int { return h / 2 }

// directionLess orders direction vectors counterclockwise starting from the
// positive x-axis.  Vectors must be nonzero and pairwise non-parallel at a
// given vertex (guaranteed by the subdivision).
func directionLess(d1, d2 geom.Point) bool {
	h1, h2 := dirHalf(d1), dirHalf(d2)
	if h1 != h2 {
		return h1 < h2
	}
	// Same half-plane: d1 comes first iff the turn from d1 to d2 is CCW.
	cross := d1.X.Mul(d2.Y).Sub(d1.Y.Mul(d2.X))
	return cross.Sign() > 0
}

// dirHalf returns 0 for the upper half-plane (y > 0, or y == 0 and x > 0) and
// 1 for the lower half-plane.
func dirHalf(d geom.Point) int {
	switch d.Y.Sign() {
	case 1:
		return 0
	case -1:
		return 1
	default:
		if d.X.Sign() > 0 {
			return 0
		}
		return 1
	}
}

// traceFaces builds the rotation system on the subdivision and traces the
// boundary cycles and faces of the planar subdivision.
func traceFaces(sub *subdivision) (*fullComplex, error) {
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
		sort.Slice(out, func(i, j int) bool {
			di := sub.points[fc.heTarget[out[i]]].Sub(origin)
			dj := sub.points[fc.heTarget[out[j]]].Sub(origin)
			return directionLess(di, dj)
		})
		fc.vertexOut[v] = out
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

	// A point inside the face left of each cycle.  The sweep path needs one
	// only per positive cycle (a bounded face) and reads it off the sweep's
	// neighbour records; the naive path ray-shoots one per cycle for the
	// crossing-parity relocation below.
	sweepOrder := sub.below != nil
	for _, c := range fc.cycles {
		switch {
		case !sweepOrder:
			c.rep, c.repOK = fc.cycleRep(c)
		case c.area2.Sign() > 0:
			rep, err := fc.sweepRep(c)
			if err != nil {
				return nil, err
			}
			c.rep, c.repOK = rep, true
		}
	}

	// Faces: one per positive-area cycle, plus the exterior face.
	for _, c := range fc.cycles {
		if c.area2.Sign() > 0 {
			f := &fullFace{id: len(fc.faces), cycles: []int{c.id}, outer: c.id, rep: c.rep}
			c.face = f.id
			fc.faces = append(fc.faces, f)
		}
	}
	ext := &fullFace{id: len(fc.faces), exterior: true, outer: -1}
	fc.faces = append(fc.faces, ext)
	fc.exteriorFace = ext.id
	ext.rep = fc.exteriorRep()

	if sweepOrder {
		fc.assignBySweepOrder()
	} else {
		// Assign hole-like cycles (area <= 0) to their containing face by
		// crossing-parity relocation of a representative point.
		for _, c := range fc.cycles {
			if c.area2.Sign() > 0 {
				continue
			}
			f := fc.containingFace(c.rep, c.repOK)
			c.face = f
			fc.faces[f].cycles = append(fc.faces[f].cycles, c.id)
		}
	}

	// Record the face of every half-edge.
	for h := 0; h < nHE; h++ {
		fc.heFace[h] = fc.cycles[fc.heCycle[h]].face
	}

	// Isolated vertices: those with no incident half-edges that came from
	// dimension-0 features.
	for _, v := range sub.isolatedCandidates {
		if len(fc.vertexOut[v]) > 0 {
			continue
		}
		fc.isolatedVerts = append(fc.isolatedVerts, v)
		var f int
		if sweepOrder {
			f = fc.resolveBelow(sub.points[v])
		} else {
			f = fc.containingFace(sub.points[v], true)
		}
		fc.vertexFace[v] = f
		fc.faces[f].isolated = append(fc.faces[f].isolated, v)
	}
	sort.Ints(fc.isolatedVerts)
	return fc, nil
}

// --- sweep-order location ---------------------------------------------------
//
// On the sweep path, hole cycles and isolated vertices are located from the
// sweep's status order instead of by crossing-parity relocation of a
// representative point.  For an event point p, sub.below[p.Key()] names the
// non-vertical input segment whose supporting line passed strictly below p
// when the sweep reached it.  The obstruction directly below p is either a
// point strictly inside a sub-segment of that segment, or a subdivision
// vertex in p's own x column — the column covers what the status cannot see:
// vertical segments (never in the status) and segments removed at an earlier
// event with the same x.  Whichever candidate is higher is the true blocker,
// and the face immediately below p is the face above it.

// buildColumns indexes the non-isolated vertices by x coordinate, each
// column sorted by ascending y.
func (fc *fullComplex) buildColumns() {
	fc.cols = make(map[string][]int)
	for v := range fc.vertexOut {
		if len(fc.vertexOut[v]) == 0 {
			continue
		}
		k := fc.sub.points[v].X.Key()
		fc.cols[k] = append(fc.cols[k], v)
	}
	for _, col := range fc.cols {
		sort.Slice(col, func(i, j int) bool {
			return fc.sub.points[col[i]].Y.Less(fc.sub.points[col[j]].Y)
		})
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
		// the edge's interior), so the upward direction lies strictly inside
		// one of w's angular sectors.
		return fc.sectorCycle(w, geom.Pt(0, 1))
	}
}

// sectorCycle returns the cycle owning the angular sector at vertex v that
// contains direction d.  d must not be parallel to an incident edge.  The
// sector swept counterclockwise from an outgoing half-edge to its CCW
// successor belongs to the face left of that half-edge, so the owner is the
// CCW predecessor of d among the outgoing directions (wrapping around).
func (fc *fullComplex) sectorCycle(v int, d geom.Point) int {
	out := fc.vertexOut[v]
	origin := fc.sub.points[v]
	best := -1
	for _, h := range out {
		if directionLess(fc.sub.points[fc.heTarget[h]].Sub(origin), d) {
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
		f := resolve(c.id)
		c.face = f
		fc.faces[f].cycles = append(fc.faces[f].cycles, c.id)
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

// cycleRep returns a point strictly inside the face bounded by the cycle
// (the face to the left of its half-edges).  ok is false only when the
// subdivision has no segments at all.  It shoots a ray against every
// sub-segment and vertex, so only the naive reference path uses it.
func (fc *fullComplex) cycleRep(c *cycleInfo) (geom.Point, bool) {
	if len(c.halfEdges) == 0 {
		return geom.Point{}, false
	}
	h := c.halfEdges[0]
	a := fc.sub.points[fc.heOrigin[h]]
	b := fc.sub.points[fc.heTarget[h]]
	m := geom.Mid(a, b)
	d := b.Sub(a)
	// Left normal of the direction d.
	n := geom.PtR(d.Y.Neg(), d.X)

	// Find the smallest positive t at which the ray m + t·n meets another
	// sub-segment or a vertex.
	var tMin rat.R
	found := false
	consider := func(t rat.R) {
		if t.Sign() <= 0 {
			return
		}
		if !found || t.Less(tMin) {
			tMin, found = t, true
		}
	}
	nn := n.X.Mul(n.X).Add(n.Y.Mul(n.Y))
	for si, s := range fc.sub.segments {
		if si == segOf(h) {
			continue
		}
		p := fc.sub.points[s.a]
		q := fc.sub.points[s.b]
		for _, t := range raySegmentHits(m, n, nn, p, q) {
			consider(t)
		}
	}
	for _, p := range fc.sub.points {
		// Vertices exactly on the ray.
		v := p.Sub(m)
		cross := v.X.Mul(n.Y).Sub(v.Y.Mul(n.X))
		if cross.Sign() != 0 {
			continue
		}
		dot := v.X.Mul(n.X).Add(v.Y.Mul(n.Y))
		if dot.Sign() > 0 {
			consider(dot.Div(nn))
		}
	}
	if !found {
		// The face extends to infinity on this side; step out by 1.
		return geom.PtR(m.X.Add(n.X), m.Y.Add(n.Y)), true
	}
	half := tMin.Mul(rat.Half)
	return geom.PtR(m.X.Add(half.Mul(n.X)), m.Y.Add(half.Mul(n.Y))), true
}

// raySegmentHits returns the parameters t > 0 at which the ray m + t·n meets
// the closed segment pq.  nn is n·n (precomputed).
func raySegmentHits(m, n geom.Point, nn rat.R, p, q geom.Point) []rat.R {
	d := q.Sub(p)
	denom := n.X.Mul(d.Y).Sub(n.Y.Mul(d.X))
	w := p.Sub(m)
	if denom.Sign() == 0 {
		// Parallel.  Collinear overlap contributes its endpoints.
		cross := w.X.Mul(n.Y).Sub(w.Y.Mul(n.X))
		if cross.Sign() != 0 {
			return nil
		}
		var out []rat.R
		for _, e := range []geom.Point{p, q} {
			v := e.Sub(m)
			dot := v.X.Mul(n.X).Add(v.Y.Mul(n.Y))
			if dot.Sign() > 0 {
				out = append(out, dot.Div(nn))
			}
		}
		return out
	}
	// Solve m + t n = p + s d:  t = (w × d) / (n × d), s = (w × n) / (n × d).
	t := w.X.Mul(d.Y).Sub(w.Y.Mul(d.X)).Div(denom)
	s := w.X.Mul(n.Y).Sub(w.Y.Mul(n.X)).Div(denom)
	if t.Sign() > 0 && s.Sign() >= 0 && s.LessEq(rat.One) {
		return []rat.R{t}
	}
	return nil
}

// exteriorRep returns a point guaranteed to lie in the unbounded face.
func (fc *fullComplex) exteriorRep() geom.Point {
	if len(fc.sub.points) == 0 {
		return geom.Pt(0, 0)
	}
	b := geom.BoxAround(fc.sub.points...)
	return geom.PtR(b.MaxX.Add(rat.One), b.MaxY.Add(rat.One))
}

// containingFace returns the ID of the face containing point p: the bounded
// face whose outer cycle has minimal area among those strictly containing p,
// or the exterior face.  p must not lie on any edge or vertex of the
// subdivision.
func (fc *fullComplex) containingFace(p geom.Point, ok bool) int {
	if !ok {
		return fc.exteriorFace
	}
	best := fc.exteriorFace
	var bestArea rat.R
	haveBest := false
	for _, f := range fc.faces {
		if f.exterior {
			continue
		}
		c := fc.cycles[f.outer]
		if !fc.cycleContains(c, p) {
			continue
		}
		if !haveBest || c.area2.Less(bestArea) {
			haveBest = true
			bestArea = c.area2
			best = f.id
		}
	}
	return best
}

// cycleContains reports whether point p is enclosed by the closed polygonal
// curve of the cycle (crossing-number parity).  p must not lie on the curve.
func (fc *fullComplex) cycleContains(c *cycleInfo, p geom.Point) bool {
	pts := make([]geom.Point, 0, len(c.halfEdges))
	for _, h := range c.halfEdges {
		pts = append(pts, fc.sub.points[fc.heOrigin[h]])
	}
	return crossingContains(pts, p)
}

// crossingContains applies the crossing-number parity test of p against the
// closed polygonal curve through pts (in order).  The result is undefined if
// p lies on the curve.
func crossingContains(pts []geom.Point, p geom.Point) bool {
	crossings := 0
	n := len(pts)
	for i := 0; i < n; i++ {
		a, b := pts[i], pts[(i+1)%n]
		if a.Y.Equal(b.Y) {
			continue
		}
		cond1 := a.Y.LessEq(p.Y) && p.Y.Less(b.Y)
		cond2 := b.Y.LessEq(p.Y) && p.Y.Less(a.Y)
		if cond1 || cond2 {
			t := p.Y.Sub(a.Y).Div(b.Y.Sub(a.Y))
			x := a.X.Add(t.Mul(b.X.Sub(a.X)))
			if p.X.Less(x) {
				crossings++
			}
		}
	}
	return crossings%2 == 1
}
