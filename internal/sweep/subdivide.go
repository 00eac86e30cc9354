package sweep

import (
	"time"

	"repro/internal/geom"
	"repro/internal/rat"
)

// Subdivision is the raw material for building a planar subdivision out of
// one exact sweep: per-input-segment split points, the sweep-order
// below-predecessor of every event point, and the status neighbours of every
// sub-segment of a non-vertical input segment.
type Subdivision struct {
	// Splits[i] holds the points at which input segment i must be split:
	// exact intersection points with other segments, collinear overlap
	// endpoints, and probe points lying on the segment.  Entries may repeat
	// and may include the segment's own endpoints; callers sort/deduplicate.
	Splits [][]geom.Point

	// Below maps the Point.Key of every event point the sweep processed —
	// all segment endpoints, every intersection point and every probe point
	// — to the index of the input segment whose supporting line passed
	// strictly below the point at the moment the sweep reached it (before
	// the event mutated the status), or -1 when the status held nothing
	// below.
	//
	// This is the sweep order threaded into face tracing: the face directly
	// below an event point is the face above that predecessor, so hole cycles
	// and isolated vertices are located without any point-in-polygon
	// relocation.  Vertical segments never enter the status; callers resolve
	// vertical obstructions from the subdivision's own vertex set.  That set
	// is larger than the keys of this map: where a vertical segment's interior
	// crosses another segment's interior, the crossing splits both but is no
	// event, so it has no entry here.  Such a crossing is never the
	// lexicographically smallest point of its connected component (the
	// vertical's lower endpoint is smaller) and never an isolated point, so
	// looking up only those two kinds of point never misses.
	Below map[geom.PointKey]int

	// Neighbours[i] holds, for non-vertical input segment i, one record per
	// distinct split point except the segment's right end, in increasing x:
	// the record for split point q describes the open x-interval from q.X to
	// the next event column.  It is nil for vertical and zero-length
	// segments.  No event lies strictly inside such an interval, so no
	// vertex, vertical segment or crossing does either, and the status order
	// holds unchanged across it.
	Neighbours [][]Neighbour

	// Pairs is the number of intersecting segment pairs found, which is also
	// the number of exact intersection computations performed.
	Pairs int
}

// Neighbour is the status order around one sub-segment of a non-vertical
// input segment, read just right of the sub-segment's left end.
type Neighbour struct {
	// X0 < X1 bound the open interval: X0 is the split point's x, X1 the x
	// of the next event column.
	X0, X1 rat.R
	// Above and Below are the input indices of the nearest segments strictly
	// above and strictly below the segment on the interval, or -1 when there
	// is none.  Collinear segments overlapping it there are skipped.
	Above, Below int
}

// Subdivide runs one exact Bentley–Ottmann sweep over the segments and probe
// points.  Every intersecting pair contributes split points to both segments,
// and every probe point is made an event point of the sweep, so a probe point
// lying on k segments costs one event instead of the O(n) scan a post-hoc
// containment test needs.  The candidate-pair stage is exact end to end — no
// float grid, no pad heuristic: a pair is reported iff the exact rational
// predicates say the segments meet, at any coordinate magnitude.
func Subdivide(segs []geom.Segment, probePts []geom.Point) *Subdivision {
	start := time.Now()
	res := &Subdivision{
		Splits:     make([][]geom.Point, len(segs)),
		Below:      make(map[geom.PointKey]int),
		Neighbours: make([][]Neighbour, len(segs)),
	}
	sw := newSweeper(segs, func(p Pair) bool {
		switch p.X.Kind {
		case geom.PointIntersection:
			res.Splits[p.I] = append(res.Splits[p.I], p.X.P)
			res.Splits[p.J] = append(res.Splits[p.J], p.X.P)
		case geom.OverlapIntersection:
			res.Splits[p.I] = append(res.Splits[p.I], p.X.OverlapA, p.X.OverlapB)
			res.Splits[p.J] = append(res.Splits[p.J], p.X.OverlapA, p.X.OverlapB)
		}
		res.Pairs++
		return true
	})
	sw.belowOut = res.Below
	sw.nbrOut = res.Neighbours
	if len(probePts) > 0 {
		sw.probe = make(map[geom.PointKey]bool, len(probePts))
		for _, p := range probePts {
			sw.probe[p.Key()] = true
		}
		sw.onProbe = func(p geom.Point, hit []int) {
			for _, i := range hit {
				res.Splits[i] = append(res.Splits[i], p)
			}
		}
		sw.addEventPoints(probePts)
	}
	sw.run()
	mRunLatency.ObserveDuration(time.Since(start))
	mSegments.Add(uint64(len(segs)))
	mEvents.Add(sw.eventsProcessed)
	mIntersections.Add(sw.pairsReported)
	return res
}

// queueNeighbours asks for a neighbour record of non-vertical segment s in
// the current column: s has a split point here that is not its right end.
func (sw *sweeper) queueNeighbours(s int) {
	if sw.nbrOut != nil {
		sw.colPending = append(sw.colPending, s)
	}
}

// leaveColumn records the neighbours of every queued segment once all events
// of the current column are done and before the first event at nextX
// mutates the status, so the status order is the one holding on the open
// interval between the two columns.
func (sw *sweeper) leaveColumn(nextX rat.R) {
	for _, s := range sw.colPending {
		if n := len(sw.nbrOut[s]); n > 0 && sw.nbrOut[s][n-1].X0.Equal(sw.curX) {
			continue // listed twice in this column
		}
		nd := sw.nodeOf[s]
		above, below := succ(nd), pred(nd)
		for above != nil && sw.collinear(s, above.seg) {
			above = succ(above)
		}
		for below != nil && sw.collinear(s, below.seg) {
			below = pred(below)
		}
		sw.nbrOut[s] = append(sw.nbrOut[s], Neighbour{
			X0: sw.curX, X1: nextX, Above: segOrNone(above), Below: segOrNone(below),
		})
	}
	sw.colPending = sw.colPending[:0]
}

// collinear reports whether status segments s and t share a supporting line;
// both span the interval being recorded, so they overlap there.
func (sw *sweeper) collinear(s, t int) bool {
	a := sw.segs[s]
	return geom.Collinear(a.A, a.B, sw.segs[t].A) && geom.Collinear(a.A, a.B, sw.segs[t].B)
}

func segOrNone(nd *node) int {
	if nd == nil {
		return -1
	}
	return nd.seg
}
