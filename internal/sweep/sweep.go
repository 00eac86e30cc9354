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
//     together, as meeting at the point unless two share a slope (clients
//     such as ring validation then ignore the pairs that are adjacent edges
//     meeting at their shared vertex);
//   - collinear overlaps: overlapping segments have equal status keys, so
//     they meet inside the run of segments through a shared event point and
//     are reported with OverlapIntersection;
//   - multi-segment event points: any number of segments may start, end or
//     cross at one point; the run through the point is recomputed there and
//     re-inserted in the order holding just right of it.
//
// The static events come from one sorted array of endpoint records, which
// also lists the segments starting at each event, so the sweep keys no map
// by point to find them; crossings found on the way go through a heap that
// may hold a point more than once, and each distinct point is processed
// once.  Status segments are canonical and non-vertical, so every status
// comparison is a bare orientation or slope test.
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
	sw := newSweeper(segs, nil, visit)
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

	// p is the event point being processed; its x is the sweep position,
	// at which the status comparator orders segments by y.
	p geom.Point

	// The static events are the distinct segment endpoints and probe points,
	// lex-sorted.  eventAt has one entry per event plus a sentinel: the
	// non-vertical segments whose canonical left endpoint is events[e] are
	// starts[eventAt[e].start:eventAt[e+1].start], the vertical ones with that
	// low endpoint vstarts[eventAt[e].vstart:eventAt[e+1].vstart], both in
	// ascending index.
	events          []geom.Point
	eventAt         []eventSpan
	starts, vstarts []int
	eventI          int
	dyn             pointHeap // crossing events; may repeat a point or hold an endpoint

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
	// reaches it (before any mutation there).  It is nil until addQuery.
	queries map[geom.PointKey][]*int

	// belowOut, when non-nil, receives Subdivision.Below: at every event
	// point that no segment passes through, ends at or reaches from below,
	// the index of the status segment strictly below it (or -1), recorded
	// before the event mutates the status.  This is the sweep-order
	// predecessor the subdivision client threads into face tracing.
	belowOut map[geom.PointKey]int

	// onProbe receives, at every probe point, its full incidence set (every
	// input segment containing the point).  The subdivision client uses this
	// to split segments at isolated region points without an
	// O(points×segments) scan.
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

// eventSpan locates a static event's starting segments in starts and
// vstarts, and marks probe points.
type eventSpan struct {
	start, vstart int32
	probe         bool
}

// endpoint is one record of the sorted endpoint array newSweeper builds the
// event table from.
type endpoint struct {
	p    geom.Point
	seg  int
	kind endpointKind
}

type endpointKind uint8

const (
	startKind  endpointKind = iota // canonical left endpoint of a non-vertical segment
	vstartKind                     // low endpoint of a vertical segment
	endKind                        // right (high) endpoint
	probeKind                      // probe point (seg is -1)
)

// newSweeper canonicalises the segments and builds the static event table
// from one sorted array of endpoint and probe records.
func newSweeper(segs []geom.Segment, probes []geom.Point, visit func(Pair) bool) *sweeper {
	sw := &sweeper{
		visit:    visit,
		segs:     make([]geom.Segment, len(segs)),
		reported: map[uint64]bool{},
		nodeOf:   make([]*node, len(segs)),
		rngState: 0x9E3779B97F4A7C15, // fixed seed: deterministic treap shape
	}
	recs := make([]endpoint, 0, 2*len(segs)+len(probes))
	nv := 0
	for i, s := range segs {
		if s.A.Equal(s.B) {
			continue // zero-length: no events, so never touched again
		}
		c := s.Canonical()
		sw.segs[i] = c
		kind := startKind
		if c.IsVertical() {
			kind = vstartKind
			nv++
		}
		recs = append(recs, endpoint{c.A, i, kind}, endpoint{c.B, i, endKind})
	}
	// A ring's n edges have n distinct endpoints, half the records, and
	// eventAt has one entry more than events.
	nev := len(recs)/2 + len(probes) + 1
	sw.events, sw.eventAt = make([]geom.Point, 0, nev), make([]eventSpan, 0, nev)
	sw.starts, sw.vstarts = make([]int, 0, len(recs)/2-nv), make([]int, 0, nv)
	for _, p := range probes {
		recs = append(recs, endpoint{p, -1, probeKind})
	}
	slices.SortFunc(recs, func(a, b endpoint) int {
		if c := geom.CmpXY(a.p, b.p); c != 0 {
			return c
		}
		return cmp.Compare(a.seg, b.seg)
	})
	for i, r := range recs {
		if i == 0 || !r.p.Equal(recs[i-1].p) {
			sw.events = append(sw.events, r.p)
			sw.eventAt = append(sw.eventAt, eventSpan{start: int32(len(sw.starts)), vstart: int32(len(sw.vstarts))})
		}
		switch r.kind {
		case startKind:
			sw.starts = append(sw.starts, r.seg)
		case vstartKind:
			sw.vstarts = append(sw.vstarts, r.seg)
		case probeKind:
			sw.eventAt[len(sw.eventAt)-1].probe = true
		}
	}
	sw.eventAt = append(sw.eventAt, eventSpan{start: int32(len(sw.starts)), vstart: int32(len(sw.vstarts))})
	return sw
}

// addQuery registers a rank query at an event point (it must be an endpoint
// of some input segment, or it will never fire).
func (sw *sweeper) addQuery(p geom.Point, out *int) {
	if sw.queries == nil {
		sw.queries = map[geom.PointKey][]*int{}
	}
	k := p.Key()
	sw.queries[k] = append(sw.queries[k], out)
}

func (sw *sweeper) run() {
	for !sw.stopped {
		p, e, ok := sw.nextEvent()
		if !ok {
			return
		}
		sw.eventsProcessed++
		sw.p = p
		if !sw.curXSet || !sw.curX.Equal(p.X) {
			if sw.curXSet {
				sw.leaveColumn(p.X)
			}
			sw.curXSet, sw.curX = true, p.X
			sw.actVert = sw.actVert[:0]
		}
		var ups, vups []int
		probing := false
		if e >= 0 {
			lo, hi := sw.eventAt[e], sw.eventAt[e+1]
			ups, vups = sw.starts[lo.start:hi.start], sw.vstarts[lo.vstart:hi.vstart]
			probing = lo.probe
		}

		// Rank queries fire before the event mutates anything at p, so the
		// count reflects exactly the segments whose half-open x-interval
		// [left, right) contains p.X — the downward-ray crossing parity.
		if sw.queries != nil {
			if outs, ok := sw.queries[p.Key()]; ok {
				c := sw.countBelow(p)
				for _, o := range outs {
					*o = c
				}
			}
		}
		// The run: status segments whose line passes exactly through p
		// (segments ending at p and segments crossing p).
		run := sw.findRun(p)

		// The below-predecessor is recorded, with the same pre-mutation
		// timing as the rank queries, only where no segment passes through
		// or ends at p and no vertical reaches p from below: face tracing
		// reads it only at such points (see Subdivision.Below).
		if sw.belowOut != nil && len(run) == 0 && !sw.vertReaches(p) {
			sw.belowOut[p.Key()] = sw.predBelow(p)
		}

		// Vertical segments starting (low endpoint) at p: check them against
		// the status segments spanning their y-range and against the other
		// verticals at this x, then keep them active for later event points
		// at the same x.
		for _, v := range vups {
			sw.verticalChecks(v)
			if sw.stopped {
				return
			}
			sw.actVert = append(sw.actVert, v)
		}

		// The run and the segments starting at p pairwise intersect at p,
		// and only at p unless the two share a slope.
		members := make([]int, 0, len(run)+len(ups))
		for _, nd := range run {
			members = append(members, nd.seg)
		}
		members = append(members, ups...)
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				sw.report(members[i], members[j], sw.cmpSlope(members[i], members[j]) != 0)
				if sw.stopped {
					return
				}
			}
		}
		// Active verticals whose span contains p meet every member exactly
		// at p: a vertical and a non-vertical segment are never collinear.
		var spanVerts []int
		for _, v := range sw.actVert {
			if sw.segs[v].A.Y.LessEq(p.Y) && p.Y.LessEq(sw.segs[v].B.Y) {
				if probing {
					spanVerts = append(spanVerts, v)
				}
				for _, s := range members {
					sw.report(v, s, true)
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
			if c := sw.cmpSlope(i, j); c != 0 {
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

// vertReaches reports whether a vertical segment processed at an earlier
// event of p's column reaches up to p.
func (sw *sweeper) vertReaches(p geom.Point) bool {
	for _, v := range sw.actVert {
		if !sw.segs[v].B.Y.Less(p.Y) {
			return true
		}
	}
	return false
}

// nextEvent merges the static endpoint stream with the dynamically scheduled
// crossing events, returning the next point and its static event index, or
// -1 for a crossing that is no endpoint.  A crossing equal to the next
// static event is merged with it, and repeats of the point just processed
// are dropped, so each distinct point is processed once.
func (sw *sweeper) nextEvent() (geom.Point, int, bool) {
	for sw.dyn.len() > 0 {
		q := sw.dyn.peek()
		if q.Equal(sw.p) { // a repeat of the point just processed
			sw.dyn.pop()
			continue
		}
		if sw.eventI < len(sw.events) && geom.CmpXY(sw.events[sw.eventI], q) <= 0 {
			break
		}
		return sw.dyn.pop(), -1, true
	}
	if sw.eventI == len(sw.events) {
		return geom.Point{}, -1, false
	}
	sw.eventI++
	return sw.events[sw.eventI-1], sw.eventI - 1, true
}

// report visits the pair (i, j) once.  atP says that both segments contain
// the event point p and are not collinear, so they meet exactly at p; the
// exact intersection is computed only otherwise.
func (sw *sweeper) report(i, j int, atP bool) {
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
	var inter geom.Intersection
	if atP {
		inter = geom.Intersection{Kind: geom.PointIntersection, P: sw.p}
	} else if inter = geom.SegmentIntersection(sw.segs[i], sw.segs[j]); inter.Kind == geom.NoIntersection {
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
			sw.dyn.push(inter.P) // nextEvent merges repeats
		}
	case geom.OverlapIntersection:
		// Overlapping segments are collinear with equal status keys, so they
		// are normally reported inside a shared run; report defensively in
		// case they became neighbours first (dedup makes repeats free).
		sw.report(a.seg, b.seg, false)
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
		if sw.cmpPoint(hi, nd.seg) < 0 {
			break // status line strictly above the span
		}
		if !sw.segs[nd.seg].B.X.Equal(lo.X) {
			// The crossing splits nd.seg at a point that may be no event
			// (inside the spans of both), and it is not nd.seg's right end.
			sw.queueNeighbours(nd.seg)
		}
		sw.report(v, nd.seg, false)
		if sw.stopped {
			return
		}
	}
	for _, w := range sw.actVert {
		// actVert is in ascending low-y order, so w.A.Y <= lo.Y: the spans
		// meet iff w reaches up to lo.
		if !sw.segs[w].B.Y.Less(lo.Y) {
			sw.report(v, w, false)
			if sw.stopped {
				return
			}
		}
	}
}
