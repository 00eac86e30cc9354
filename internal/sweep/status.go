// The sweep status structure: a treap (randomised balanced BST) over the
// segments currently crossing the sweep line, ordered by y at the sweep x.
// Parent pointers give O(log n) neighbour walks, subtree sizes give the
// O(log n) "segments strictly below this point" rank query that ValidateArea
// uses for hole containment, and the fixed-seed xorshift priorities keep the
// shape (and therefore every traversal) deterministic for a given input.
package sweep

import (
	"repro/internal/geom"
	"repro/internal/rat"
)

type node struct {
	seg     int
	pri     uint64
	size    int
	l, r, p *node
}

func size(n *node) int {
	if n == nil {
		return 0
	}
	return n.size
}

func (n *node) update() { n.size = 1 + size(n.l) + size(n.r) }

// cmpSeg orders segment a against status segment b at the sweep x.  a must
// pass through the current event point p (insertSeg's segments do: they
// cross p or start there), so its y there is p.Y and the y comparison is
// p's side of b.  Ties, which only segments through p have, fall back to
// slope — the order holding just right of p — then to input index, which
// totalises the order for collinear overlapping segments.
func (sw *sweeper) cmpSeg(a, b int) int {
	if a == b {
		return 0
	}
	if c := sw.cmpPoint(sw.p, b); c != 0 {
		return c
	}
	if c := sw.cmpSlope(a, b); c != 0 {
		return c
	}
	return a - b
}

// cmpPoint is geom.CmpPointSeg against segment i: -1 when p is below its
// supporting line, 0 on it and +1 above.  The sweep's segments are
// canonical, and only non-vertical ones are compared, so it is one
// orientation test.
func (sw *sweeper) cmpPoint(p geom.Point, i int) int {
	s := &sw.segs[i]
	return geom.Orientation(s.A, s.B, p)
}

// cmpSlope is geom.CmpSlope of non-vertical segments i and j, whose x
// extents are positive.
func (sw *sweeper) cmpSlope(i, j int) int {
	s, t := &sw.segs[i], &sw.segs[j]
	return rat.CmpMulDiff(s.B.Y, s.A.Y, t.B.X, t.A.X, t.B.Y, t.A.Y, s.B.X, s.A.X)
}

func (sw *sweeper) rand() uint64 {
	sw.rngState ^= sw.rngState << 13
	sw.rngState ^= sw.rngState >> 7
	sw.rngState ^= sw.rngState << 17
	return sw.rngState
}

// rotateUp moves n above its parent, preserving in-order sequence.
func (sw *sweeper) rotateUp(n *node) {
	pa := n.p
	g := pa.p
	if pa.l == n {
		pa.l = n.r
		if n.r != nil {
			n.r.p = pa
		}
		n.r = pa
	} else {
		pa.r = n.l
		if n.l != nil {
			n.l.p = pa
		}
		n.l = pa
	}
	pa.p = n
	n.p = g
	if g == nil {
		sw.root = n
	} else if g.l == pa {
		g.l = n
	} else {
		g.r = n
	}
	pa.update()
	n.update()
}

// insertSeg inserts a segment at the position given by cmpSeg and returns
// its node.
func (sw *sweeper) insertSeg(s int) *node {
	nd := &node{seg: s, pri: sw.rand(), size: 1}
	sw.nodeOf[s] = nd
	if sw.root == nil {
		sw.root = nd
		return nd
	}
	cur := sw.root
	for {
		if sw.cmpSeg(s, cur.seg) < 0 {
			if cur.l == nil {
				cur.l = nd
				nd.p = cur
				break
			}
			cur = cur.l
		} else {
			if cur.r == nil {
				cur.r = nd
				nd.p = cur
				break
			}
			cur = cur.r
		}
	}
	for a := cur; a != nil; a = a.p {
		a.size++
	}
	for nd.p != nil && nd.pri > nd.p.pri {
		sw.rotateUp(nd)
	}
	return nd
}

// removeNode deletes a node by handle (no comparator search, so it works
// even while the run through the current event point is being reordered).
func (sw *sweeper) removeNode(nd *node) {
	for nd.l != nil && nd.r != nil {
		if nd.l.pri > nd.r.pri {
			sw.rotateUp(nd.l)
		} else {
			sw.rotateUp(nd.r)
		}
	}
	child := nd.l
	if child == nil {
		child = nd.r
	}
	pa := nd.p
	if child != nil {
		child.p = pa
	}
	if pa == nil {
		sw.root = child
	} else if pa.l == nd {
		pa.l = child
	} else {
		pa.r = child
	}
	for a := pa; a != nil; a = a.p {
		a.size--
	}
	nd.l, nd.r, nd.p = nil, nil, nil
	sw.nodeOf[nd.seg] = nil
}

func pred(n *node) *node {
	if n == nil {
		return nil
	}
	if n.l != nil {
		n = n.l
		for n.r != nil {
			n = n.r
		}
		return n
	}
	for n.p != nil && n.p.l == n {
		n = n.p
	}
	return n.p
}

func succ(n *node) *node {
	if n == nil {
		return nil
	}
	if n.r != nil {
		n = n.r
		for n.l != nil {
			n = n.l
		}
		return n
	}
	for n.p != nil && n.p.r == n {
		n = n.p
	}
	return n.p
}

// findRun returns, in status order, the segments whose line passes exactly
// through p: the segments ending at, or crossing, the event point.
func (sw *sweeper) findRun(p geom.Point) []*node {
	var hit *node
	for cur := sw.root; cur != nil; {
		c := sw.cmpPoint(p, cur.seg)
		if c == 0 {
			hit = cur
			break
		}
		if c < 0 {
			cur = cur.l
		} else {
			cur = cur.r
		}
	}
	if hit == nil {
		return nil
	}
	first := hit
	for nd := pred(first); nd != nil && sw.cmpPoint(p, nd.seg) == 0; nd = pred(nd) {
		first = nd
	}
	var out []*node
	for nd := first; nd != nil && sw.cmpPoint(p, nd.seg) == 0; nd = succ(nd) {
		out = append(out, nd)
	}
	return out
}

// lowerBound returns the lowest status segment whose line at p.X is at or
// above p.Y.
func (sw *sweeper) lowerBound(p geom.Point) *node {
	var cand *node
	for cur := sw.root; cur != nil; {
		if sw.cmpPoint(p, cur.seg) <= 0 {
			cand = cur
			cur = cur.l
		} else {
			cur = cur.r
		}
	}
	return cand
}

// countBelow returns how many status segments pass strictly below p.  Since
// the status holds exactly the non-vertical segments whose half-open
// x-interval contains the sweep x, this is the crossing count of a downward
// vertical ray from p — the Jordan parity ValidateArea relies on.
func (sw *sweeper) countBelow(p geom.Point) int {
	n := 0
	for cur := sw.root; cur != nil; {
		if sw.cmpPoint(p, cur.seg) > 0 {
			n += size(cur.l) + 1
			cur = cur.r
		} else {
			cur = cur.l
		}
	}
	return n
}

// predBelow returns the input index of the status segment whose line passes
// strictly below p and is nearest to it (the in-order predecessor of p's rank
// position), or -1 when no status segment passes below p.  Collinear
// overlapping segments share a supporting line, so any representative of a
// tied group is equivalent for the callers (they only use the line).
func (sw *sweeper) predBelow(p geom.Point) int {
	best := -1
	for cur := sw.root; cur != nil; {
		if sw.cmpPoint(p, cur.seg) > 0 {
			best = cur.seg
			cur = cur.r
		} else {
			cur = cur.l
		}
	}
	return best
}

// pointHeap is a minimal binary min-heap of points in lexicographic order,
// holding the dynamically discovered crossing events.
type pointHeap struct {
	pts []geom.Point
}

func (h *pointHeap) len() int         { return len(h.pts) }
func (h *pointHeap) peek() geom.Point { return h.pts[0] }

func (h *pointHeap) push(p geom.Point) {
	h.pts = append(h.pts, p)
	i := len(h.pts) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if geom.CmpXY(h.pts[i], h.pts[parent]) >= 0 {
			break
		}
		h.pts[i], h.pts[parent] = h.pts[parent], h.pts[i]
		i = parent
	}
}

func (h *pointHeap) pop() geom.Point {
	top := h.pts[0]
	last := len(h.pts) - 1
	h.pts[0] = h.pts[last]
	h.pts = h.pts[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < len(h.pts) && geom.CmpXY(h.pts[l], h.pts[least]) < 0 {
			least = l
		}
		if r < len(h.pts) && geom.CmpXY(h.pts[r], h.pts[least]) < 0 {
			least = r
		}
		if least == i {
			break
		}
		h.pts[i], h.pts[least] = h.pts[least], h.pts[i]
		i = least
	}
	return top
}
