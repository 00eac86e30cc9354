// Package sweep implements a Bentley–Ottmann plane sweep over segments with
// exact rational coordinates, and the geometry-validation clients built on
// it (ring simplicity, strict hole containment).
//
// The sweep reports every intersecting pair of input segments in
// O((n + k) log n) time for n segments and k intersecting pairs — against
// the O(n²) of testing every pair — which is what lets the GeoJSON importer
// accept rings two orders of magnitude larger than the quadratic checker
// could (see internal/geojson's vertex budgets).  Exact rat event ordering
// sidesteps the robustness heuristics floating-point implementations need:
// every predicate is a sign computation, so the classic degeneracies are
// handled by case analysis, not epsilons:
//
//   - vertical segments: kept out of the status structure (they have no
//     y-at-x function) and resolved by an explicit status range query at
//     their x plus checks against the events sharing that x;
//   - shared endpoints: every endpoint is an event point; all segments
//     incident to an event point pairwise intersect there and are reported
//     together (clients such as ring validation then ignore the pairs that
//     are adjacent edges meeting at their shared vertex);
//   - collinear overlaps: overlapping segments have equal status keys, so
//     they meet inside the run of segments through a shared event point and
//     are reported with OverlapIntersection;
//   - multi-segment event points: any number of segments may start, end or
//     cross at one point; the run through the point is recomputed there and
//     re-inserted in the order holding just right of it.
//
// Two client modes are exposed: Run with a visitor that may stop the sweep
// at the first relevant crossing (early-exit, used by the validation
// clients — an invalid input stops at its first violation, a valid input
// pays one full sweep), and Intersections, which collects every pair.
//
// The status structure is a treap keyed by y-at-sweep-x (ties broken by
// slope, then input index) that also maintains subtree sizes, so "how many
// segments pass strictly below this point" is one O(log n) descent.  That
// rank query is how ValidateArea gets hole containment for free: when the
// sweep reaches the leftmost vertex of a hole, the parity of the number of
// status segments strictly below it says whether the hole sits inside the
// outer ring and outside every other hole (Jordan curve counting), with no
// pairwise containment tests at all.
package sweep

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/geom"
	"repro/internal/rat"
)

// Pair is one intersecting pair of input segments.
type Pair struct {
	// I, J are indices into the input slice, with I < J.
	I, J int
	// X is the exact intersection: a point (crossing or touch) or a
	// collinear overlap.
	X geom.Intersection
}

// Run sweeps the segments left to right and calls visit exactly once for
// every intersecting pair — proper crossings, endpoint touches and collinear
// overlaps alike (visit classifies via Pair.X).  visit returning false stops
// the sweep immediately; this is the "report first crossing" mode used by
// the validation clients.  Zero-length segments are ignored.
func Run(segs []geom.Segment, visit func(Pair) bool) {
	start := time.Now()
	sw := newSweeper(segs, visit)
	sw.run()
	mRunLatency.ObserveDuration(time.Since(start))
	mSegments.Add(uint64(len(segs)))
	mEvents.Add(sw.eventsProcessed)
	mIntersections.Add(sw.pairsReported)
}

// Intersections returns every intersecting pair ("report all" mode).
func Intersections(segs []geom.Segment) []Pair {
	var out []Pair
	Run(segs, func(p Pair) bool { out = append(out, p); return true })
	return out
}

// sweeper is the state of one Bentley–Ottmann run.
type sweeper struct {
	segs    []geom.Segment // canonicalised input (A ≤ B lexicographically)
	visit   func(Pair) bool
	stopped bool

	// x is the sweep position: the x coordinate of the event point being
	// processed.  The status comparator evaluates y-at-x here.
	x rat.R

	events []geom.Point // static endpoint events, lex-sorted, deduplicated
	eventI int
	dyn    pointHeap              // dynamically scheduled crossing events
	queued map[geom.PointKey]bool // every point ever queued (dedup for schedule)

	starts  map[geom.PointKey][]int // canonical left endpoint → non-vertical segments
	vstarts map[geom.PointKey][]int // canonical low endpoint → vertical segments

	// Verticals live only while the sweep is at their x: actVert lists the
	// verticals of the current x already processed (in ascending low-y
	// order), so later event points at the same x can be checked against
	// them.
	curXSet bool
	curX    rat.R
	actVert []int

	root     *node
	rngState uint64

	reported map[uint64]bool // pair keys already visited

	// queries maps an event point key to rank-query outputs: the number of
	// status segments strictly below the point at the moment the sweep
	// reaches it (before any mutation there).
	queries map[geom.PointKey][]*int

	// belowOut, when non-nil, receives for every event point the index of the
	// status segment strictly below it (or -1), recorded before the event
	// mutates the status.  This is the sweep-order predecessor the
	// subdivision client threads into face tracing.
	belowOut map[geom.PointKey]int

	// probe marks event points whose full incidence set (every input segment
	// containing the point) should be reported to onProbe.  The subdivision
	// client uses this to split segments at isolated region points without an
	// O(points×segments) scan.
	probe   map[geom.PointKey]bool
	onProbe func(p geom.Point, segs []int)

	// nbrOut, when non-nil, receives the neighbour records of the
	// subdivision client (Subdivision.Neighbours).  colPending lists the
	// segments with a split point in the current column that is not their
	// right end (a segment may be listed twice).  nodeOf[s] is s's status
	// node, or nil while s is not in the status.
	nbrOut     [][]Neighbour
	colPending []int
	nodeOf     []*node

	// eventsProcessed / pairsReported feed the process-wide sweep metrics
	// once per run (plain fields here: a sweep is single-goroutine).
	eventsProcessed uint64
	pairsReported   uint64
}

func newSweeper(segs []geom.Segment, visit func(Pair) bool) *sweeper {
	sw := &sweeper{
		visit:    visit,
		segs:     make([]geom.Segment, len(segs)),
		starts:   map[geom.PointKey][]int{},
		vstarts:  map[geom.PointKey][]int{},
		queued:   map[geom.PointKey]bool{},
		reported: map[uint64]bool{},
		queries:  map[geom.PointKey][]*int{},
		nodeOf:   make([]*node, len(segs)),
		rngState: 0x9E3779B97F4A7C15, // fixed seed: deterministic treap shape
	}
	pts := make([]geom.Point, 0, 2*len(segs))
	for i, s := range segs {
		if s.A.Equal(s.B) {
			continue // zero-length: no events, so never touched again
		}
		c := s.Canonical()
		sw.segs[i] = c
		k := c.A.Key()
		if c.IsVertical() {
			sw.vstarts[k] = append(sw.vstarts[k], i)
		} else {
			sw.starts[k] = append(sw.starts[k], i)
		}
		pts = append(pts, c.A, c.B)
	}
	slices.SortFunc(pts, geom.CmpXY)
	for _, p := range pts {
		if len(sw.events) == 0 || !sw.events[len(sw.events)-1].Equal(p) {
			sw.events = append(sw.events, p)
			sw.queued[p.Key()] = true
		}
	}
	return sw
}

// addQuery registers a rank query at an event point (it must be an endpoint
// of some input segment, or it will never fire).
func (sw *sweeper) addQuery(p geom.Point, out *int) {
	k := p.Key()
	sw.queries[k] = append(sw.queries[k], out)
}

// addEventPoints merges extra static event points into the queue.  It must be
// called before run() starts.  The subdivision client uses this to make every
// isolated region point an event, so point-on-segment incidences are found by
// the same sweep that finds segment intersections.
func (sw *sweeper) addEventPoints(pts []geom.Point) {
	added := false
	for _, p := range pts {
		k := p.Key()
		if sw.queued[k] {
			continue
		}
		sw.queued[k] = true
		sw.events = append(sw.events, p)
		added = true
	}
	if added {
		slices.SortFunc(sw.events, geom.CmpXY)
	}
}

func (sw *sweeper) run() {
	for !sw.stopped {
		p, ok := sw.nextEvent()
		if !ok {
			return
		}
		sw.eventsProcessed++
		sw.x = p.X
		key := p.Key()
		if !sw.curXSet || !sw.curX.Equal(p.X) {
			if sw.curXSet {
				sw.leaveColumn(p.X)
			}
			sw.curXSet, sw.curX = true, p.X
			sw.actVert = sw.actVert[:0]
		}

		// Rank queries fire before the event mutates anything at p, so the
		// count reflects exactly the segments whose half-open x-interval
		// [left, right) contains p.X — the downward-ray crossing parity.
		if outs, ok := sw.queries[key]; ok {
			c := sw.countBelow(p)
			for _, o := range outs {
				*o = c
			}
		}
		// The below-predecessor is recorded with the same pre-mutation timing
		// as the rank queries: segments through p are still in the status but
		// compare equal at p, so predBelow sees exactly the segments whose
		// line passes strictly below the point.
		if sw.belowOut != nil {
			sw.belowOut[key] = sw.predBelow(p)
		}

		// Vertical segments starting (low endpoint) at p: check them against
		// the status segments spanning their y-range and against the other
		// verticals at this x, then keep them active for later event points
		// at the same x.
		for _, v := range sw.vstarts[key] {
			sw.verticalChecks(v)
			if sw.stopped {
				return
			}
			sw.actVert = append(sw.actVert, v)
		}

		// The run: status segments whose line passes exactly through p
		// (segments ending at p and segments crossing p), plus the segments
		// starting at p.  Everything incident to p pairwise intersects at p.
		run := sw.findRun(p)
		ups := sw.starts[key]
		members := make([]int, 0, len(run)+len(ups))
		for _, nd := range run {
			members = append(members, nd.seg)
		}
		members = append(members, ups...)
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				sw.report(members[i], members[j])
				if sw.stopped {
					return
				}
			}
		}
		// Active verticals whose span contains p intersect everything at p.
		probing := sw.onProbe != nil && sw.probe[key]
		var spanVerts []int
		for _, v := range sw.actVert {
			if sw.segs[v].A.Y.LessEq(p.Y) && p.Y.LessEq(sw.segs[v].B.Y) {
				if probing {
					spanVerts = append(spanVerts, v)
				}
				for _, s := range members {
					sw.report(v, s)
					if sw.stopped {
						return
					}
				}
			}
		}
		// Probe points: report every input segment containing p — the run
		// (status lines through p within their x-span), the segments starting
		// at p, and the active verticals whose span contains p.
		if probing {
			hit := make([]int, 0, len(members)+len(spanVerts))
			hit = append(hit, members...)
			hit = append(hit, spanVerts...)
			sw.onProbe(p, hit)
		}

		// Capture the neighbours bracketing the run before removing it.
		var below, above *node
		if len(run) > 0 {
			below, above = pred(run[0]), succ(run[len(run)-1])
		}
		var through []int
		for _, nd := range run {
			if !sw.segs[nd.seg].B.Equal(p) {
				through = append(through, nd.seg) // crosses p, stays active
			}
			sw.removeNode(nd)
		}

		// Re-insert the crossing segments and insert the starting ones in
		// the order holding just right of p: ascending slope (all pass
		// through p, so y-at-x ties; collinear overlaps tie fully and fall
		// back to input order).
		ins := append(through, ups...)
		slices.SortFunc(ins, func(i, j int) int {
			if c := geom.CmpSlope(sw.segs[i], sw.segs[j]); c != 0 {
				return c
			}
			return cmp.Compare(i, j)
		})
		for _, s := range ins {
			sw.queueNeighbours(s) // p splits s and is not its right end
		}
		if len(ins) == 0 {
			sw.checkNeighbors(below, above, p)
		} else {
			var first, last *node
			for _, s := range ins {
				nd := sw.insertSeg(s)
				if first == nil {
					first = nd
				}
				last = nd
			}
			sw.checkNeighbors(pred(first), first, p)
			sw.checkNeighbors(last, succ(last), p)
		}
	}
}

// nextEvent merges the static endpoint stream with the dynamically scheduled
// crossing events.  The two never hold the same point (queued dedups).
func (sw *sweeper) nextEvent() (geom.Point, bool) {
	hasS := sw.eventI < len(sw.events)
	hasD := sw.dyn.len() > 0
	switch {
	case !hasS && !hasD:
		return geom.Point{}, false
	case hasS && (!hasD || geom.CmpXY(sw.events[sw.eventI], sw.dyn.peek()) < 0):
		p := sw.events[sw.eventI]
		sw.eventI++
		return p, true
	default:
		return sw.dyn.pop(), true
	}
}

// schedule queues a future crossing event (points at or before the current
// event have already been handled and are deduplicated away).
func (sw *sweeper) schedule(q geom.Point) {
	k := q.Key()
	if sw.queued[k] {
		return
	}
	sw.queued[k] = true
	sw.dyn.push(q)
}

// report visits the pair (i, j) once, computing its exact intersection.
func (sw *sweeper) report(i, j int) {
	if sw.stopped {
		return
	}
	if i > j {
		i, j = j, i
	}
	k := uint64(i)<<32 | uint64(uint32(j))
	if sw.reported[k] {
		return
	}
	inter := geom.SegmentIntersection(sw.segs[i], sw.segs[j])
	if inter.Kind == geom.NoIntersection {
		return
	}
	sw.reported[k] = true
	sw.pairsReported++
	if !sw.visit(Pair{I: i, J: j, X: inter}) {
		sw.stopped = true
	}
}

// checkNeighbors inspects a newly adjacent status pair: a crossing strictly
// right of p becomes a scheduled event; crossings at or before p were
// already reported at their own event point.
func (sw *sweeper) checkNeighbors(a, b *node, p geom.Point) {
	if a == nil || b == nil || sw.stopped {
		return
	}
	inter := geom.SegmentIntersection(sw.segs[a.seg], sw.segs[b.seg])
	switch inter.Kind {
	case geom.PointIntersection:
		if geom.CmpXY(inter.P, p) > 0 {
			sw.schedule(inter.P)
		}
	case geom.OverlapIntersection:
		// Overlapping segments are collinear with equal status keys, so they
		// are normally reported inside a shared run; report defensively in
		// case they became neighbours first (dedup makes repeats free).
		sw.report(a.seg, b.seg)
	}
}

// verticalChecks reports the intersections of a vertical segment: status
// segments whose line at this x passes through its y-span, and other
// verticals at the same x with overlapping spans.  Segments with an endpoint
// on the vertical that are not yet in the status are caught later, at their
// own event points, by the actVert scan in run().
func (sw *sweeper) verticalChecks(v int) {
	lo, hi := sw.segs[v].A, sw.segs[v].B
	for nd := sw.lowerBound(lo); nd != nil; nd = succ(nd) {
		if geom.CmpPointSeg(hi, sw.segs[nd.seg]) < 0 {
			break // status line strictly above the span
		}
		if !sw.segs[nd.seg].B.X.Equal(lo.X) {
			// The crossing splits nd.seg at a point that may be no event
			// (inside the spans of both), and it is not nd.seg's right end.
			sw.queueNeighbours(nd.seg)
		}
		sw.report(v, nd.seg)
		if sw.stopped {
			return
		}
	}
	for _, w := range sw.actVert {
		// actVert is in ascending low-y order, so w.A.Y <= lo.Y: the spans
		// meet iff w reaches up to lo.
		if !sw.segs[w].B.Y.Less(lo.Y) {
			sw.report(v, w)
			if sw.stopped {
				return
			}
		}
	}
}
