package arrangement

import (
	"slices"
	"sort"

	"repro/internal/geom"
)

// reduce removes topologically insignificant cells from the full subdivision
// and assembles the final Complex (the maximum topological cell
// decomposition).  The decomposition is determined by the *point set* of the
// instance, not by its particular semi-linear representation, so three kinds
// of representation artefacts are eliminated:
//
//  1. edges whose sign class equals the sign class of both adjacent faces
//     (e.g. a boundary segment shared by two polygons of the same region, or
//     a curve drawn inside a region's interior) are deleted and the adjacent
//     faces merged;
//  2. degree-two vertices whose sign class equals the sign class of both
//     incident edges are deleted and the edges merged; chains that close up
//     with no significant vertex become free loops (closed 1-cells with no
//     endpoints, the paper's single-edge connected components);
//  3. vertices left with no incident edges whose sign class equals their
//     containing face's sign class are deleted.
func reduce(fc *fullComplex) *Complex {
	nPts := len(fc.sub.points)
	nSegs := len(fc.sub.segments)

	// --- Phase A: delete interior edges and merge the faces they separate.
	faceUF := newUnionFind(len(fc.faces))
	segDeleted := make([]bool, nSegs)
	for s := 0; s < nSegs; s++ {
		lf, rf := fc.heFace[2*s], fc.heFace[2*s+1]
		if slices.Equal(fc.segSign[s], fc.faceSign[lf]) && slices.Equal(fc.segSign[s], fc.faceSign[rf]) {
			segDeleted[s] = true
			faceUF.union(lf, rf)
		}
	}

	// Live outgoing half-edges per vertex (counterclockwise order preserved).
	liveOut := make([][]int, nPts)
	for v := 0; v < nPts; v++ {
		for _, h := range fc.vertexOut[v] {
			if !segDeleted[segOf(h)] {
				liveOut[v] = append(liveOut[v], h)
			}
		}
	}
	// Containing face of a vertex with no live edges.
	containingFace := func(v int) int {
		if len(fc.vertexOut[v]) > 0 {
			return faceUF.find(fc.heFace[fc.vertexOut[v][0]])
		}
		return faceUF.find(fc.vertexFace[v])
	}

	// --- Phase B: decide which vertices are kept.
	kept := make([]bool, nPts)
	dropped := make([]bool, nPts)
	for v := 0; v < nPts; v++ {
		switch len(liveOut[v]) {
		case 0:
			// Merged faces share sign classes, so the class root's signs
			// are representative.
			if slices.Equal(fc.vertexSign[v], fc.faceSign[containingFace(v)]) {
				dropped[v] = true
			} else {
				kept[v] = true
			}
		case 2:
			s1, s2 := segOf(liveOut[v][0]), segOf(liveOut[v][1])
			if !slices.Equal(fc.vertexSign[v], fc.segSign[s1]) || !slices.Equal(fc.vertexSign[v], fc.segSign[s2]) {
				kept[v] = true
			}
		default:
			kept[v] = true
		}
	}

	cx := &Complex{}

	// --- Reduced faces: one per surviving union-find class.
	faceID := make([]int, len(fc.faces))
	for i := range faceID {
		faceID[i] = -1
	}
	// The exterior class first, so its properties are taken from the true
	// exterior face.
	order := make([]int, 0, len(fc.faces))
	order = append(order, fc.exteriorFace)
	for _, f := range fc.faces {
		if f.id != fc.exteriorFace {
			order = append(order, f.id)
		}
	}
	for _, fid := range order {
		root := faceUF.find(fid)
		if faceID[root] != -1 {
			continue
		}
		id := len(cx.Faces)
		faceID[root] = id
		nf := &Face{ID: id, Rep: fc.faces[fid].rep, FaceInfo: FaceInfo{Sign: fc.faceSign[fid]}}
		if faceUF.find(fc.exteriorFace) == root {
			nf.Exterior = true
			nf.Rep = fc.faces[fc.exteriorFace].rep
			nf.Sign = fc.faceSign[fc.exteriorFace]
			cx.ExteriorFace = id
		}
		cx.Faces = append(cx.Faces, nf)
	}
	redFace := func(fullFaceID int) int { return faceID[faceUF.find(fullFaceID)] }

	// --- Reduced vertices.
	vertexID := make([]int, nPts)
	for i := range vertexID {
		vertexID[i] = -1
	}
	for v := 0; v < nPts; v++ {
		if !kept[v] {
			continue
		}
		id := len(cx.Vertices)
		vertexID[v] = id
		cx.Vertices = append(cx.Vertices, &Vertex{
			ID:    id,
			Point: fc.sub.points[v],
			VertexInfo: VertexInfo{
				Isolated: len(liveOut[v]) == 0,
				Sign:     fc.vertexSign[v],
			},
		})
	}

	// --- Reduced edges: chain live sub-segments across removed vertices.
	segEdge := make([]int, nSegs)
	for i := range segEdge {
		segEdge[i] = -1
	}
	otherSeg := func(v, s int) int {
		for _, h := range liveOut[v] {
			if segOf(h) != s {
				return segOf(h)
			}
		}
		return -1
	}
	otherEnd := func(s, v int) int {
		seg := fc.sub.segments[s]
		if seg.a == v {
			return seg.b
		}
		return seg.a
	}

	for s0 := 0; s0 < nSegs; s0++ {
		if segDeleted[s0] || segEdge[s0] != -1 {
			continue
		}
		// Walk backward from one endpoint of s0 until reaching a kept vertex
		// or detecting a pure cycle.
		startV, startS := fc.sub.segments[s0].a, s0
		{
			v, s := startV, s0
			visited := map[int]bool{s0: true}
			for !kept[v] {
				ns := otherSeg(v, s)
				if ns < 0 || visited[ns] {
					break // pure cycle of removable vertices
				}
				visited[ns] = true
				s = ns
				v = otherEnd(s, v)
			}
			startV, startS = v, s
		}

		chainSegs := []int{startS}
		chainPts := []geom.Point{fc.sub.points[startV]}
		v := otherEnd(startS, startV)
		chainPts = append(chainPts, fc.sub.points[v])
		for !kept[v] && v != startV {
			ns := otherSeg(v, chainSegs[len(chainSegs)-1])
			chainSegs = append(chainSegs, ns)
			v = otherEnd(ns, v)
			chainPts = append(chainPts, fc.sub.points[v])
		}
		endV := v

		e := &Edge{ID: len(cx.Edges), Chain: chainPts, EdgeInfo: EdgeInfo{Sign: fc.segSign[startS]}}
		switch {
		case !kept[startV] && endV == startV:
			e.V1, e.V2 = -1, -1
			e.Closed = true
		default:
			e.V1, e.V2 = vertexID[startV], vertexID[endV]
			e.Closed = startV == endV
		}

		faceSet := map[int]bool{}
		for _, s := range chainSegs {
			faceSet[redFace(fc.heFace[2*s])] = true
			faceSet[redFace(fc.heFace[2*s+1])] = true
			segEdge[s] = e.ID
		}
		e.Faces = sortedKeys(faceSet)
		cx.Edges = append(cx.Edges, e)
	}

	// --- Face incidences.
	faceEdges := make([]map[int]bool, len(cx.Faces))
	faceVerts := make([]map[int]bool, len(cx.Faces))
	for i := range faceEdges {
		faceEdges[i] = map[int]bool{}
		faceVerts[i] = map[int]bool{}
	}
	for s := 0; s < nSegs; s++ {
		if segDeleted[s] {
			continue
		}
		seg := fc.sub.segments[s]
		for _, h := range []int{2 * s, 2*s + 1} {
			f := redFace(fc.heFace[h])
			faceEdges[f][segEdge[s]] = true
			for _, vv := range []int{seg.a, seg.b} {
				if kept[vv] {
					faceVerts[f][vertexID[vv]] = true
				}
			}
		}
	}
	// Isolated vertices (originally isolated, or newly isolated after edge
	// deletion) belong to their containing face.
	for v := 0; v < nPts; v++ {
		if !kept[v] || len(liveOut[v]) > 0 || dropped[v] {
			continue
		}
		f := faceID[containingFace(v)]
		faceVerts[f][vertexID[v]] = true
		cx.Faces[f].IsolatedVertices = append(cx.Faces[f].IsolatedVertices, vertexID[v])
		cx.Vertices[vertexID[v]].Face = f
	}
	for i, f := range cx.Faces {
		f.Edges = sortedKeys(faceEdges[i])
		f.Vertices = sortedKeys(faceVerts[i])
		sort.Ints(f.IsolatedVertices)
	}

	// --- Vertex cones.
	for v := 0; v < nPts; v++ {
		if !kept[v] || len(liveOut[v]) == 0 {
			continue
		}
		rv := cx.Vertices[vertexID[v]]
		cone := make([]CellRef, 0, 2*len(liveOut[v]))
		for _, h := range liveOut[v] {
			cone = append(cone,
				CellRef{EdgeCell, segEdge[segOf(h)]},
				CellRef{FaceCell, redFace(fc.heFace[h])},
			)
		}
		rv.Cone = cone
		rv.Face = cone[1].Index
	}

	return cx
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// unionFind is a standard disjoint-set structure.
type unionFind struct {
	parent []int
	rank   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
}
