package invariant

import (
	"fmt"
	"sort"
	"strings"
)

// Components describes the connected components of the invariant's skeleton,
// their nesting in faces, and the connected-component tree of the paper
// (Section 3, Fig. 2).
type Components struct {
	// List holds the components, indexed by component ID.
	List []*Component
	// OfVertex, OfEdge map cells to their component ID.
	OfVertex []int
	OfEdge   []int
	// FaceOwner maps each face to the component it "belongs to" (the unique
	// component at minimal distance from the exterior face among those
	// meeting its boundary); the exterior face and faces with empty boundary
	// map to -1.
	FaceOwner []int
	// RegionComponents maps each region name to the components its boundary
	// meets, in increasing order.
	RegionComponents map[string][]int
}

// Component is one connected component of the skeleton of the invariant
// (vertices and edges connected through the Edge-Vertex relation; an isolated
// vertex or a free loop forms its own component).
type Component struct {
	ID       int
	Vertices []int
	Edges    []int
	// Faces are the faces belonging to this component.
	Faces []int
	// Distance is the component's distance from the exterior face (0 when it
	// shares boundary with the exterior face).
	Distance int
	// Parent is the parent component in the connected-component tree
	// (-1 when the parent is the root ⊥).
	Parent int
	// ParentFace is the face labelling the tree edge to the parent (the face
	// into which this component is embedded).
	ParentFace int
	// Regions lists the region names whose extent meets this component.
	Regions []string
}

// Size returns the number of skeleton cells in the component.
func (c *Component) Size() int { return len(c.Vertices) + len(c.Edges) }

// Components computes (and caches) the connected components, face ownership,
// distances and the connected-component tree of the invariant.  It is safe
// for concurrent use: invariants are shared across goroutines by the engine's
// content-addressed cache.
func (inv *Invariant) Components() *Components {
	inv.componentsOnce.Do(func() {
		inv.components = computeComponents(inv)
	})
	return inv.components
}

func computeComponents(inv *Invariant) *Components {
	nV, nE := len(inv.Vertices), len(inv.Edges)
	// Union-find over skeleton cells: vertices are 0..nV-1, edges nV..nV+nE-1.
	uf := make([]int, nV+nE)
	for i := range uf {
		uf[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for uf[x] != x {
			uf[x] = uf[uf[x]]
			x = uf[x]
		}
		return x
	}
	union := func(a, b int) { uf[find(a)] = find(b) }
	for e, info := range inv.Edges {
		if info.V1 >= 0 {
			union(nV+e, info.V1)
		}
		if info.V2 >= 0 {
			union(nV+e, info.V2)
		}
	}

	comps := &Components{
		OfVertex:         make([]int, nV),
		OfEdge:           make([]int, nE),
		FaceOwner:        make([]int, len(inv.Faces)),
		RegionComponents: make(map[string][]int),
	}
	rootToID := map[int]int{}
	compOf := func(cell int) int {
		r := find(cell)
		id, ok := rootToID[r]
		if !ok {
			id = len(comps.List)
			rootToID[r] = id
			comps.List = append(comps.List, &Component{ID: id, Parent: -1, ParentFace: -1, Distance: -1})
		}
		return id
	}
	for v := 0; v < nV; v++ {
		id := compOf(v)
		comps.OfVertex[v] = id
		comps.List[id].Vertices = append(comps.List[id].Vertices, v)
	}
	for e := 0; e < nE; e++ {
		id := compOf(nV + e)
		comps.OfEdge[e] = id
		comps.List[id].Edges = append(comps.List[id].Edges, e)
	}

	// Adjacency between components and faces: a component is adjacent to a
	// face when one of its edges or vertices is on the face's boundary
	// (including isolated vertices inside the face).
	compFaces := make([]map[int]bool, len(comps.List))
	for i := range compFaces {
		compFaces[i] = map[int]bool{}
	}
	faceComps := make([]map[int]bool, len(inv.Faces))
	for i := range faceComps {
		faceComps[i] = map[int]bool{}
	}
	link := func(comp, face int) {
		compFaces[comp][face] = true
		faceComps[face][comp] = true
	}
	for f, info := range inv.Faces {
		for _, e := range info.Edges {
			link(comps.OfEdge[e], f)
		}
		for _, v := range info.Vertices {
			link(comps.OfVertex[v], f)
		}
	}
	// Isolated vertices not referenced by any face (defensive): attach via
	// their containing face.
	for v, info := range inv.Vertices {
		if info.Isolated {
			link(comps.OfVertex[v], info.Face)
		}
	}

	// Distances from the exterior face by BFS alternating faces and
	// components: dist(exterior face) = 0; dist(component) = min adjacent
	// face distance; dist(face) = 1 + min adjacent component distance.
	faceDist := make([]int, len(inv.Faces))
	for i := range faceDist {
		faceDist[i] = -1
	}
	faceDist[inv.ExteriorFace] = 0
	type qitem struct {
		isFace bool
		id     int
	}
	queue := []qitem{{true, inv.ExteriorFace}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if it.isFace {
			//lint:allow determinism(BFS levels are iteration-order independent: a node's Distance is its depth, fixed by the graph, whatever order neighbours enqueue)
			for comp := range faceComps[it.id] {
				if comps.List[comp].Distance == -1 {
					comps.List[comp].Distance = faceDist[it.id]
					queue = append(queue, qitem{false, comp})
				}
			}
		} else {
			//lint:allow determinism(BFS levels are iteration-order independent: a node's Distance is its depth, fixed by the graph, whatever order neighbours enqueue)
			for f := range compFaces[it.id] {
				if faceDist[f] == -1 {
					faceDist[f] = comps.List[it.id].Distance + 1
					queue = append(queue, qitem{true, f})
				}
			}
		}
	}

	// Face ownership: each face other than the exterior belongs to the
	// adjacent component at minimal distance (ties broken by component ID).
	for f := range inv.Faces {
		comps.FaceOwner[f] = -1
		if f == inv.ExteriorFace {
			continue
		}
		best, bestDist := -1, -1
		ids := sortedIntKeys(faceComps[f])
		for _, comp := range ids {
			d := comps.List[comp].Distance
			if best == -1 || (d >= 0 && d < bestDist) {
				best, bestDist = comp, d
			}
		}
		comps.FaceOwner[f] = best
		if best >= 0 {
			comps.List[best].Faces = append(comps.List[best].Faces, f)
		}
	}

	// Connected-component tree: the parent of a component c is the owner of
	// the face into which c is embedded — the adjacent face of minimal
	// distance.  Components adjacent to the exterior face hang off the root.
	for _, c := range comps.List {
		bestFace, bestDist := -1, -1
		for _, f := range sortedIntKeys(compFaces[c.ID]) {
			d := faceDist[f]
			if d < 0 {
				continue
			}
			if bestFace == -1 || d < bestDist {
				bestFace, bestDist = f, d
			}
		}
		c.ParentFace = bestFace
		if bestFace == -1 || bestFace == inv.ExteriorFace {
			c.Parent = -1
			if bestFace == -1 {
				c.ParentFace = inv.ExteriorFace
			}
			continue
		}
		owner := comps.FaceOwner[bestFace]
		if owner == c.ID {
			// The face of minimal distance is owned by c itself; the parent
			// is the owner of the next-better face, which only happens for
			// components adjacent to the exterior face.
			c.Parent = -1
			c.ParentFace = inv.ExteriorFace
			continue
		}
		c.Parent = owner
	}

	// Region incidence per component.
	for ri, name := range inv.Schema.Names() {
		seen := map[int]bool{}
		for v, info := range inv.Vertices {
			if info.Sign[ri] != Exterior {
				seen[comps.OfVertex[v]] = true
			}
		}
		for e, info := range inv.Edges {
			if info.Sign[ri] != Exterior {
				seen[comps.OfEdge[e]] = true
			}
		}
		ids := sortedIntKeys(seen)
		comps.RegionComponents[name] = ids
		for _, id := range ids {
			comps.List[id].Regions = append(comps.List[id].Regions, name)
		}
	}
	for _, c := range comps.List {
		sort.Ints(c.Vertices)
		sort.Ints(c.Edges)
		sort.Ints(c.Faces)
		sort.Strings(c.Regions)
	}
	return comps
}

// Children returns the IDs of the components whose parent is the given
// component (pass -1 for the root).
func (cs *Components) Children(parent int) []int {
	var out []int
	for _, c := range cs.List {
		if c.Parent == parent {
			out = append(out, c.ID)
		}
	}
	return out
}

// Count returns the number of connected components.
func (cs *Components) Count() int { return len(cs.List) }

// TreeString renders the connected-component tree in a compact indented form
// (Fig. 2 of the paper).
func (cs *Components) TreeString() string {
	var b strings.Builder
	b.WriteString("⊥\n")
	var rec func(parent int, indent string)
	rec = func(parent int, indent string) {
		for _, id := range cs.Children(parent) {
			c := cs.List[id]
			fmt.Fprintf(&b, "%s└─ c%d (dist %d, via face %d, regions %v)\n", indent, id, c.Distance, c.ParentFace, c.Regions)
			rec(id, indent+"   ")
		}
	}
	rec(-1, "")
	return b.String()
}

func sortedIntKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
