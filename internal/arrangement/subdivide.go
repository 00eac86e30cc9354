package arrangement

import (
	"sort"

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

	segRings  map[string][]int // input segment key -> ring IDs covering it
	segLines  map[string][]int // input segment key -> region indices with a line feature covering it
	pointRegs map[string][]int // isolated point key -> region indices with that Dim0 feature
}

func (src *srcTables) addRing(ri int, pg geom.Polygon, segSet map[string]geom.Segment) int {
	id := src.nRings
	src.nRings++
	src.ringRegion = append(src.ringRegion, ri)
	for _, e := range pg.Edges() {
		if e.A.Equal(e.B) {
			continue
		}
		c := e.Canonical()
		segSet[c.Key()] = c
		src.segRings[c.Key()] = append(src.segRings[c.Key()], id)
	}
	return id
}

// splitRef names split point k (in sorted order) of input segment seg.
type splitRef struct{ seg, k int }

// subdivision is the output of the splitting phase.
type subdivision struct {
	points   []geom.Point   // vertex coordinates, indexed by vertex ID
	pointID  map[string]int // point key -> vertex ID
	segments []subSeg
	// isolatedCandidates are vertex IDs created from dimension-0 region
	// features; they are isolated only if no sub-segment ends at them.
	isolatedCandidates []int

	// Classification sources.
	src      *srcTables
	subRings [][]int // per sub-segment: ring IDs covering it (sorted, unique)
	subLines [][]int // per sub-segment: region indices whose lines cover it

	// Sweep-order data, read by face tracing.
	below       map[string]int      // event point key -> input segment below, or -1
	neighbours  [][]sweep.Neighbour // per input segment: status neighbours per split point
	inputSegs   []geom.Segment      // deduplicated canonical input segments
	inputSplits [][]geom.Point      // sorted unique split points per input segment
	segIndex    map[[2]int]int      // ID-sorted vertex pair -> sub-segment index
	subSrc      []splitRef          // per sub-segment: its left end, as a split point of an input segment covering it

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
	sub, keys, isoPts := gatherInput(inst)
	sd := sweep.Subdivide(sub.inputSegs, isoPts)
	sub.below = sd.Below
	sub.neighbours = sd.Neighbours
	sub.intersectionOps = sd.Pairs
	sub.emit(keys, sd.Splits, isoPts)
	return sub
}

// gatherInput collects the distinct input segments of the instance into
// sub.inputSegs, in the order of their keys (returned alongside), and its
// distinct isolated points, tagging each with the rings, lines and points
// that produced it.
func gatherInput(inst *spatial.Instance) (sub *subdivision, keys []string, isoPts []geom.Point) {
	sub = &subdivision{pointID: make(map[string]int)}
	src := &srcTables{
		names:     inst.Schema().Names(),
		segRings:  make(map[string][]int),
		segLines:  make(map[string][]int),
		pointRegs: make(map[string][]int),
	}
	src.areaFeats = make([][]areaFeat, len(src.names))
	sub.src = src

	segSet := make(map[string]geom.Segment)
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
					c := s.Canonical()
					segSet[c.Key()] = c
					src.segLines[c.Key()] = appendUnique(src.segLines[c.Key()], ri)
				}
			case region.Dim2:
				af := areaFeat{outer: src.addRing(ri, f.Outer, segSet)}
				for _, h := range f.Holes {
					af.holes = append(af.holes, src.addRing(ri, h, segSet))
				}
				src.areaFeats[ri] = append(src.areaFeats[ri], af)
			}
		}
	}
	keys = make([]string, 0, len(segSet))
	for k := range segSet {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic order
	sub.inputSegs = make([]geom.Segment, 0, len(segSet))
	for _, k := range keys {
		sub.inputSegs = append(sub.inputSegs, segSet[k])
	}
	return sub, keys, isoPts
}

// emit splits each input segment i at its endpoints and at splits[i] (its
// intersections with other segments and the isolated points on it).  It
// emits each elementary sub-segment once, merging the boundary sources of
// every input segment that covers it (collinear overlaps make one
// sub-segment belong to several input segments), and registers the
// isolated points as vertices.
func (sub *subdivision) emit(keys []string, splits [][]geom.Point, isoPts []geom.Point) {
	src := sub.src
	sub.segIndex = make(map[[2]int]int)
	sub.inputSplits = make([][]geom.Point, len(sub.inputSegs))
	for i, s := range sub.inputSegs {
		pts := geom.SortPoints(append([]geom.Point{s.A, s.B}, splits[i]...))
		sub.inputSplits[i] = pts
		rk := src.segRings[keys[i]]
		lk := src.segLines[keys[i]]
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
