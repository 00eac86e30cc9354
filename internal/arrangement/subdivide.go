package arrangement

import (
	"slices"
	"sort"
	"strings"

	"repro/internal/geom"
	"repro/internal/region"
	"repro/internal/spatial"
	"repro/internal/sweep"
)

// subSeg is an elementary sub-segment between two vertex IDs.  Elementary
// sub-segments intersect each other only at shared endpoints.  The vertex a
// is always the lexicographically smaller endpoint, so the even half-edge
// 2i of sub-segment i runs left to right (bottom to top when vertical).
type subSeg struct {
	a, b int
}

// areaFeat is one dimension-2 feature as ring IDs: crossing an edge covered
// by a ring toggles the containment parity of that ring, and a point is
// inside the feature iff it is inside the outer ring and outside every hole.
type areaFeat struct {
	outer int
	holes []int
}

// srcTables records which region boundaries produced each input segment and
// isolated point.  classify() uses them to derive every cell's sign class
// combinatorially — by propagating ring-crossing parities over the face dual
// graph — instead of point-locating representative points in the regions.
type srcTables struct {
	names      []string // schema order; region index = position here
	areaFeats  [][]areaFeat
	nRings     int
	ringRegion []int // ring ID -> region index

	segRings  [][]int                 // per input segment: ring IDs covering it
	segLines  [][]int                 // per input segment: region indices with a line feature covering it
	pointRegs map[geom.PointKey][]int // isolated point -> region indices with that Dim0 feature
}

// addRing gives ring pg of region ri the next ring ID and records that ID
// on every input segment of its boundary.
func (sub *subdivision) addRing(ri int, pg geom.Polygon, segID map[geom.SegmentKey]int) int {
	src := sub.src
	id := src.nRings
	src.nRings++
	src.ringRegion = append(src.ringRegion, ri)
	for _, e := range pg.Edges() {
		if e.A.Equal(e.B) {
			continue
		}
		i := sub.inputSeg(e, segID)
		src.segRings[i] = append(src.segRings[i], id)
	}
	return id
}

// inputSeg returns the index of s's canonical form in sub.inputSegs, adding
// it when it is new; segID maps the key of every segment added so far to
// its index.
func (sub *subdivision) inputSeg(s geom.Segment, segID map[geom.SegmentKey]int) int {
	c := s.Canonical()
	k := c.Key()
	i, ok := segID[k]
	if !ok {
		i = len(sub.inputSegs)
		segID[k] = i
		sub.inputSegs = append(sub.inputSegs, c)
		sub.src.segRings = append(sub.src.segRings, nil)
		sub.src.segLines = append(sub.src.segLines, nil)
	}
	return i
}

// splitRef names split point k (in sorted order) of input segment seg.
type splitRef struct{ seg, k int }

// subdivision is the output of the splitting phase.
type subdivision struct {
	points   []geom.Point          // vertex coordinates, indexed by vertex ID
	pointID  map[geom.PointKey]int // point key -> vertex ID
	segments []subSeg
	// isolatedCandidates are vertex IDs created from dimension-0 region
	// features; they are isolated only if no sub-segment ends at them.
	isolatedCandidates []int

	// Classification sources.
	src      *srcTables
	subRings [][]int // per sub-segment: ring IDs covering it (sorted, unique)
	subLines [][]int // per sub-segment: region indices whose lines cover it

	// Sweep-order data, read by face tracing.
	below       map[geom.PointKey]int // event point key -> input segment below, or -1
	neighbours  [][]sweep.Neighbour   // per input segment: status neighbours per split point
	inputSegs   []geom.Segment        // deduplicated canonical input segments
	inputSplits [][]geom.Point        // sorted unique split points per input segment
	segIndex    map[[2]int]int        // ID-sorted vertex pair -> sub-segment index
	subSrc      []splitRef            // per sub-segment: its left end, as a split point of an input segment covering it

	intersectionOps int
}

func (s *subdivision) vertexID(p geom.Point) int {
	k := p.Key()
	if id, ok := s.pointID[k]; ok {
		return id
	}
	id := len(s.points)
	s.points = append(s.points, p)
	s.pointID[k] = id
	return id
}

// subdivide collects all boundary segments and isolated points of the
// instance and splits the segments at every mutual intersection so that the
// resulting elementary sub-segments meet only at endpoints.
//
// One exact Bentley–Ottmann sweep (sweep.Subdivide) does the splitting:
// split points come straight from the sweep's intersection events, isolated
// points ride the same sweep as probe events, and the sweep's status order
// (the segment strictly below every event point, and the segments strictly
// above and below every sub-segment) is kept for face tracing.
func subdivide(inst *spatial.Instance) *subdivision {
	sub, isoPts := gatherInput(inst)
	sd := sweep.Subdivide(sub.inputSegs, isoPts)
	sub.below = sd.Below
	sub.neighbours = sd.Neighbours
	sub.intersectionOps = sd.Pairs
	sub.emit(sd.Splits, isoPts)
	return sub
}

// gatherInput collects the distinct input segments of the instance into
// sub.inputSegs and its distinct isolated points, tagging each with the
// rings, lines and points that produced it.
//
// The input segments are ordered by their decimal text "ax,ay;bx,by" (the
// canonical endpoints' coordinates as rat.R.String), rendered once per
// distinct segment.  That order numbers the subdivision's vertices and,
// through them, the invariant's cells, so it reaches the encoded bytes the
// golden files pin: ordering by coordinates (geom.CmpXY) instead changes
// the encoding of dozens of their instances.
func gatherInput(inst *spatial.Instance) (sub *subdivision, isoPts []geom.Point) {
	sub = &subdivision{}
	src := &srcTables{
		names:     inst.Schema().Names(),
		pointRegs: make(map[geom.PointKey][]int),
	}
	src.areaFeats = make([][]areaFeat, len(src.names))
	sub.src = src

	// Ring vertices and line points bound the number of input segments.
	n := 0
	for _, name := range src.names {
		for _, f := range inst.Region(name).Features {
			n += len(f.Line.Points) + len(f.Outer.Vertices)
			for _, h := range f.Holes {
				n += len(h.Vertices)
			}
		}
	}
	segID := make(map[geom.SegmentKey]int, n)
	sub.inputSegs = make([]geom.Segment, 0, n)
	for ri, name := range src.names {
		r := inst.Region(name)
		for _, f := range r.Features {
			switch f.Dim {
			case region.Dim0:
				k := f.Point.Key()
				if len(src.pointRegs[k]) == 0 {
					isoPts = append(isoPts, f.Point)
				}
				src.pointRegs[k] = appendUnique(src.pointRegs[k], ri)
			case region.Dim1:
				for _, s := range f.Line.Segments() {
					if s.A.Equal(s.B) {
						continue
					}
					i := sub.inputSeg(s, segID)
					src.segLines[i] = appendUnique(src.segLines[i], ri)
				}
			case region.Dim2:
				af := areaFeat{outer: sub.addRing(ri, f.Outer, segID)}
				for _, h := range f.Holes {
					af.holes = append(af.holes, sub.addRing(ri, h, segID))
				}
				src.areaFeats[ri] = append(src.areaFeats[ri], af)
			}
		}
	}
	text := make([]string, len(sub.inputSegs))
	order := make([]int, len(sub.inputSegs))
	for i, c := range sub.inputSegs {
		text[i] = c.A.X.String() + "," + c.A.Y.String() + ";" + c.B.X.String() + "," + c.B.Y.String()
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int { return strings.Compare(text[i], text[j]) })
	sub.inputSegs = permute(sub.inputSegs, order)
	src.segRings = permute(src.segRings, order)
	src.segLines = permute(src.segLines, order)
	return sub, isoPts
}

// permute returns the elements of s in the given order of indices.
func permute[T any](s []T, order []int) []T {
	out := make([]T, len(order))
	for i, j := range order {
		out[i] = s[j]
	}
	return out
}

// emit splits each input segment i at its endpoints and at splits[i] (its
// intersections with other segments and the isolated points on it), which
// it sorts in place.  It emits each elementary sub-segment once, merging
// the boundary sources of every input segment that covers it (collinear
// overlaps make one sub-segment belong to several input segments), and
// registers the isolated points as vertices.
func (sub *subdivision) emit(splits [][]geom.Point, isoPts []geom.Point) {
	src := sub.src
	sub.pointID = make(map[geom.PointKey]int, len(sub.inputSegs)+len(isoPts))
	sub.segIndex = make(map[[2]int]int, len(sub.inputSegs))
	sub.inputSplits = make([][]geom.Point, len(sub.inputSegs))
	for i, s := range sub.inputSegs {
		pts := geom.SortPoints(append(splits[i], s.A, s.B))
		sub.inputSplits[i] = pts
		rk := src.segRings[i]
		lk := src.segLines[i]
		for k := 0; k+1 < len(pts); k++ {
			a := sub.vertexID(pts[k])
			b := sub.vertexID(pts[k+1])
			key := [2]int{a, b}
			if a > b {
				key = [2]int{b, a}
			}
			si, ok := sub.segIndex[key]
			if !ok {
				si = len(sub.segments)
				sub.segIndex[key] = si
				sub.segments = append(sub.segments, subSeg{a, b})
				sub.subSrc = append(sub.subSrc, splitRef{i, k})
				sub.subRings = append(sub.subRings, nil)
				sub.subLines = append(sub.subLines, nil)
			}
			sub.subRings[si] = mergeUnique(sub.subRings[si], rk)
			sub.subLines[si] = mergeUnique(sub.subLines[si], lk)
		}
	}
	for si := range sub.segments {
		sort.Ints(sub.subRings[si])
		sort.Ints(sub.subLines[si])
	}
	for _, q := range isoPts {
		sub.isolatedCandidates = append(sub.isolatedCandidates, sub.vertexID(q))
	}
}

// subSegAt returns the index of the sub-segment of (non-vertical) input
// segment i whose open x-span contains x.  It is only called for blocker
// points known to lie strictly inside a sub-segment.
func (sub *subdivision) subSegAt(i int, x geom.Point) int {
	pts := sub.inputSplits[i]
	// Largest k with pts[k].X < x.X (the split points of a non-vertical
	// segment strictly increase in x).
	k := sort.Search(len(pts), func(k int) bool { return !pts[k].X.Less(x.X) }) - 1
	a := sub.pointID[pts[k].Key()]
	b := sub.pointID[pts[k+1].Key()]
	key := [2]int{a, b}
	if a > b {
		key = [2]int{b, a}
	}
	return sub.segIndex[key]
}

func appendUnique(s []int, v int) []int {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

func mergeUnique(dst, add []int) []int {
	for _, v := range add {
		dst = appendUnique(dst, v)
	}
	return dst
}
