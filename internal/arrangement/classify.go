package arrangement

// classify computes the sign class (interior / boundary / exterior) of every
// cell of the full subdivision with respect to every region of the instance.
//
// The classification is exact and respects the union semantics of
// multi-feature regions: an edge shared by two area features of the same
// region is interior of that region, since the union has a neighbourhood of
// the edge on both sides.  The semantic rules are:
//
//   - face:   interior iff any of its points (equivalently all — faces never
//     meet a boundary) belongs to the closed region, else exterior;
//   - edge:   exterior if its open interior is outside the closed region;
//     otherwise interior iff both incident faces are interior, else
//     boundary;
//   - vertex: exterior if the point is outside the closed region; otherwise
//     interior iff every incident face is interior and every incident edge
//     is non-exterior, else boundary.  Isolated vertices inside the region
//     are interior only if their containing face is interior.
//
// The signs are derived without a single point-in-region query.  Crossing
// an edge covered by a ring toggles the containment parity of that ring, so
// a breadth-first walk over the face dual graph — rooted at the exterior
// face, whose parity set is empty — labels every face with the set of rings
// containing it.  A face is interior to a region iff some area feature of
// the region has its outer ring in the set and no hole ring in the set.
// Edge and vertex signs then follow from the face signs plus the boundary
// sources recorded during subdivision: a cell lies in the closed region iff
// it is on a recorded boundary source or in an interior face, and the
// interior-versus-boundary split only inspects already-computed signs of the
// incident cells.
func (fc *fullComplex) classify() {
	src := fc.sub.src
	names := src.names
	sub := fc.sub

	// Region indices whose boundary (ring or line) covers each sub-segment.
	covered := make([][]int, len(sub.segments))
	for i := range sub.segments {
		var c []int
		for _, r := range sub.subRings[i] {
			c = appendUnique(c, src.ringRegion[r])
		}
		for _, ri := range sub.subLines[i] {
			c = appendUnique(c, ri)
		}
		covered[i] = c
	}

	// Parity propagation over the face dual graph.  Any dual path from the
	// exterior face to a face crosses each ring an even number of times plus
	// once per containment, so the accumulated symmetric difference is
	// path-independent.
	type dualEdge struct{ face, seg int }
	adj := make([][]dualEdge, len(fc.faces))
	for i := range sub.segments {
		fa, fb := fc.heFace[2*i], fc.heFace[2*i+1]
		if fa == fb {
			continue
		}
		adj[fa] = append(adj[fa], dualEdge{fb, i})
		adj[fb] = append(adj[fb], dualEdge{fa, i})
	}
	odd := make([][]int, len(fc.faces)) // sorted ring IDs with odd parity
	visited := make([]bool, len(fc.faces))
	queue := []int{fc.exteriorFace}
	visited[fc.exteriorFace] = true
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		for _, e := range adj[f] {
			if visited[e.face] {
				continue
			}
			visited[e.face] = true
			odd[e.face] = symDiff(odd[f], sub.subRings[e.seg])
			queue = append(queue, e.face)
		}
	}

	// Faces.
	fc.faceSign = make([][]Sign, len(fc.faces))
	for _, f := range fc.faces {
		oddSet := make(map[int]bool, len(odd[f.id]))
		for _, r := range odd[f.id] {
			oddSet[r] = true
		}
		m := make([]Sign, len(names))
		for ri := range names {
			sign := Exterior
			for _, af := range src.areaFeats[ri] {
				if !oddSet[af.outer] {
					continue
				}
				inHole := false
				for _, h := range af.holes {
					if oddSet[h] {
						inHole = true
						break
					}
				}
				if !inHole {
					sign = Interior
					break
				}
			}
			m[ri] = sign
		}
		fc.faceSign[f.id] = m
	}

	// Edges.  An uncovered edge never meets the region's boundary (its open
	// interior contains no vertex and crosses no boundary edge), so both
	// incident faces carry the same sign and the edge inherits it.
	fc.segSign = make([][]Sign, len(sub.segments))
	for i := range sub.segments {
		lf, rf := fc.heFace[2*i], fc.heFace[2*i+1]
		m := make([]Sign, len(names))
		for ri := range names {
			if !containsInt(covered[i], ri) {
				m[ri] = fc.faceSign[lf][ri]
				continue
			}
			if fc.faceSign[lf][ri] == Interior && fc.faceSign[rf][ri] == Interior {
				m[ri] = Interior
			} else {
				m[ri] = Boundary
			}
		}
		fc.segSign[i] = m
	}

	// Vertices.  A vertex is in the closed region iff it is a point feature
	// of the region, an endpoint of a covered edge, or inside an interior
	// face (with no incident covered edge, all incident faces agree).
	fc.vertexSign = make([][]Sign, len(sub.points))
	for v := range sub.points {
		out := fc.vertexOut[v]
		ptRegs := src.pointRegs[sub.points[v].Key()]
		m := make([]Sign, len(names))
		for ri := range names {
			isPt := containsInt(ptRegs, ri)
			if len(out) == 0 {
				switch {
				case fc.faceSign[fc.vertexFace[v]][ri] == Interior:
					m[ri] = Interior
				case isPt:
					m[ri] = Boundary
				default:
					m[ri] = Exterior
				}
				continue
			}
			interior := true
			coveredAny := false
			for _, h := range out {
				if fc.faceSign[fc.heFace[h]][ri] != Interior {
					interior = false
				}
				if fc.segSign[segOf(h)][ri] == Exterior {
					interior = false
				}
				if containsInt(covered[segOf(h)], ri) {
					coveredAny = true
				}
			}
			contains := isPt || coveredAny ||
				fc.faceSign[fc.heFace[out[0]]][ri] == Interior
			switch {
			case !contains:
				m[ri] = Exterior
			case interior:
				m[ri] = Interior
			default:
				m[ri] = Boundary
			}
		}
		fc.vertexSign[v] = m
	}
}

// symDiff returns the symmetric difference of two sorted int slices, sorted.
func symDiff(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// containsInt reports whether the slice contains v (slices here are tiny).
func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
