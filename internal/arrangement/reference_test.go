package arrangement

import (
	"repro/internal/geom"
	"repro/internal/rat"
	"repro/internal/spatial"
)

// This file holds the quadratic reference pipeline that the differential
// tests compare Build against.  It shares input gathering, sub-segment
// emission, cycle tracing, face creation and reduction with Build, and
// replaces each sweep-driven step with a brute-force one: exact all-pairs
// bounding boxes and a point-on-segment scan for the splitting, ray-shot
// representatives and crossing-parity relocation for the faces, and
// point-location in the regions for the sign classes.

// buildReference computes the maximum topological cell decomposition of the
// instance on the quadratic reference pipeline.
func buildReference(inst *spatial.Instance) (*Complex, error) {
	full, err := traceFacesReference(subdivideReference(inst))
	if err != nil {
		return nil, err
	}
	full.classifyByLocation(inst)
	return finish(full, inst), nil
}

// subdivideReference splits the input segments at the intersections of
// every pair whose exact bounding boxes meet, and at every isolated point
// lying on them.
func subdivideReference(inst *spatial.Instance) *subdivision {
	sub, keys, isoPts := gatherInput(inst)
	segs := sub.inputSegs
	splits := make([][]geom.Point, len(segs))
	for _, pr := range naiveCandidatePairs(segs) {
		i, j := pr[0], pr[1]
		sub.intersectionOps++
		in := geom.SegmentIntersection(segs[i], segs[j])
		switch in.Kind {
		case geom.PointIntersection:
			splits[i] = append(splits[i], in.P)
			splits[j] = append(splits[j], in.P)
		case geom.OverlapIntersection:
			splits[i] = append(splits[i], in.OverlapA, in.OverlapB)
			splits[j] = append(splits[j], in.OverlapA, in.OverlapB)
		}
	}
	for _, q := range isoPts {
		for i, s := range segs {
			if s.ContainsPoint(q) {
				splits[i] = append(splits[i], q)
			}
		}
	}
	sub.emit(keys, splits, isoPts)
	return sub
}

// naiveCandidatePairs returns every pair of segments whose exact bounding
// boxes intersect.  The old float-grid candidate finder it replaced had a
// fixed 1e-6 pad over non-monotone float64 approximations of exact
// rationals, and could silently drop truly intersecting pairs (see
// TestGridPairFinderMissedPair).
func naiveCandidatePairs(segs []geom.Segment) [][2]int {
	var out [][2]int
	boxes := make([]geom.Box, len(segs))
	for i, s := range segs {
		boxes[i] = s.Box()
	}
	for i := 0; i < len(segs); i++ {
		for j := i + 1; j < len(segs); j++ {
			if boxes[i].Intersects(boxes[j]) {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

// traceFacesReference traces the faces of the subdivision, ray-shooting a
// representative point for every cycle and assigning hole cycles and
// isolated vertices to the smallest bounded face that contains them.
func traceFacesReference(sub *subdivision) (*fullComplex, error) {
	fc, err := traceCycles(sub)
	if err != nil {
		return nil, err
	}
	for _, c := range fc.cycles {
		c.rep = fc.cycleRep(c)
	}
	fc.addFaces()
	for _, c := range fc.cycles {
		if c.area2.Sign() <= 0 {
			c.face = fc.containingFace(c.rep)
		}
	}
	fc.recordHalfEdgeFaces()
	for _, v := range sub.isolatedCandidates {
		if len(fc.vertexOut[v]) == 0 {
			fc.vertexFace[v] = fc.containingFace(sub.points[v])
		}
	}
	return fc, nil
}

// cycleRep returns a point strictly inside the face bounded by the cycle
// (the face to the left of its half-edges), shooting a ray from the middle
// of its first half-edge against every sub-segment and vertex.
func (fc *fullComplex) cycleRep(c *cycleInfo) geom.Point {
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
		return geom.PtR(m.X.Add(n.X), m.Y.Add(n.Y))
	}
	half := tMin.Mul(rat.Half)
	return geom.PtR(m.X.Add(half.Mul(n.X)), m.Y.Add(half.Mul(n.Y)))
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

// containingFace returns the ID of the face containing point p: the bounded
// face whose outer cycle has minimal area among those strictly containing p,
// or the exterior face.  p must not lie on any edge or vertex of the
// subdivision.
func (fc *fullComplex) containingFace(p geom.Point) int {
	best := fc.exteriorFace
	var bestArea rat.R
	for _, c := range fc.cycles {
		if c.area2.Sign() <= 0 || !fc.cycleContains(c, p) {
			continue
		}
		if best == fc.exteriorFace || c.area2.Less(bestArea) {
			bestArea = c.area2
			best = c.face
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

// classifyByLocation is the point-location reference for classify: every
// face representative, edge midpoint and vertex is located in every region
// with Region.Contains.
func (fc *fullComplex) classifyByLocation(inst *spatial.Instance) {
	names := inst.Schema().Names()

	// Faces.
	fc.faceSign = make([][]Sign, len(fc.faces))
	for _, f := range fc.faces {
		m := make([]Sign, len(names))
		for ri, name := range names {
			if inst.Region(name).Contains(f.rep) {
				m[ri] = Interior
			} else {
				m[ri] = Exterior
			}
		}
		fc.faceSign[f.id] = m
	}

	// Edges (sub-segments).
	fc.segSign = make([][]Sign, len(fc.sub.segments))
	for i, s := range fc.sub.segments {
		mid := geom.Mid(fc.sub.points[s.a], fc.sub.points[s.b])
		leftFace := fc.heFace[2*i]
		rightFace := fc.heFace[2*i+1]
		m := make([]Sign, len(names))
		for ri, name := range names {
			if !inst.Region(name).Contains(mid) {
				m[ri] = Exterior
				continue
			}
			if fc.faceSign[leftFace][ri] == Interior && fc.faceSign[rightFace][ri] == Interior {
				m[ri] = Interior
			} else {
				m[ri] = Boundary
			}
		}
		fc.segSign[i] = m
	}

	// Vertices.
	fc.vertexSign = make([][]Sign, len(fc.sub.points))
	for v := range fc.sub.points {
		p := fc.sub.points[v]
		m := make([]Sign, len(names))
		out := fc.vertexOut[v]
		for ri, name := range names {
			if !inst.Region(name).Contains(p) {
				m[ri] = Exterior
				continue
			}
			interior := true
			if len(out) == 0 {
				// Isolated vertex: interior iff its containing face is
				// interior (then a neighbourhood minus the point is in the
				// region, and so is the point).
				f, ok := fc.vertexFace[v]
				if !ok || fc.faceSign[f][ri] != Interior {
					interior = false
				}
			} else {
				for _, h := range out {
					if fc.faceSign[fc.heFace[h]][ri] != Interior {
						interior = false
						break
					}
					if fc.segSign[segOf(h)][ri] == Exterior {
						interior = false
						break
					}
				}
			}
			if interior {
				m[ri] = Interior
			} else {
				m[ri] = Boundary
			}
		}
		fc.vertexSign[v] = m
	}
}
