// Package arrangement builds the maximum topological cell decomposition of a
// spatial instance: the planar subdivision induced by the boundaries of all
// regions, reduced so that only topologically significant vertices remain.
//
// This is the substrate the paper takes from [KY85]/[BKR86]: a cell complex
// whose cells are homeomorphic to R⁰, R¹ or R² minus a finite set of points,
// such that the closure of each cell is a union of cells and each cell lies
// inside a single sign class (interior / boundary / exterior of every
// region).  The topological invariant of the paper (package invariant) is a
// relational presentation of this complex.
//
// The construction pipeline is:
//
//  1. subdivision — one exact Bentley–Ottmann sweep (internal/sweep) splits
//     all boundary segments at their mutual intersections and at isolated
//     region points (ridden through the sweep as probe events), producing
//     elementary sub-segments meeting only at endpoints and recording the
//     sweep's status order at every event point and around every
//     sub-segment (subdivide.go);
//  2. face tracing — build the rotation system and trace face boundary
//     cycles, assigning hole cycles and isolated vertices to their
//     containing faces directly from the recorded sweep order, and placing
//     each bounded face's representative point halfway between one of its
//     edges and the nearest segment the sweep saw on the face side
//     (faces.go);
//  3. classification — compute the sign class of every cell with respect to
//     every region combinatorially, by propagating ring-crossing parities
//     over the face dual graph (classify.go);
//  4. reduction — remove topologically insignificant degree-2 vertices,
//     merging their incident edges, to obtain the maximum topological cell
//     decomposition (reduce.go).
package arrangement

import (
	"fmt"
	"time"

	"repro/internal/geom"
	"repro/internal/spatial"
)

// Sign is the position of a cell relative to one region.
type Sign int

const (
	// Exterior: the cell is disjoint from the (closed) region.
	Exterior Sign = iota
	// Boundary: the cell is contained in the topological boundary of the region.
	Boundary
	// Interior: the cell is contained in the interior of the region.
	Interior
)

func (s Sign) String() string {
	switch s {
	case Exterior:
		return "-"
	case Boundary:
		return "∂"
	case Interior:
		return "o"
	default:
		return "?"
	}
}

// CellKind distinguishes vertices, edges and faces.
type CellKind int

const (
	// VertexCell is a 0-dimensional cell.
	VertexCell CellKind = iota
	// EdgeCell is a 1-dimensional cell.
	EdgeCell
	// FaceCell is a 2-dimensional cell.
	FaceCell
)

func (k CellKind) String() string {
	switch k {
	case VertexCell:
		return "vertex"
	case EdgeCell:
		return "edge"
	case FaceCell:
		return "face"
	default:
		return "?"
	}
}

// CellRef identifies a cell of the complex by kind and index.
type CellRef struct {
	Kind  CellKind
	Index int
}

func (c CellRef) String() string { return fmt.Sprintf("%s#%d", c.Kind, c.Index) }

// VertexInfo, EdgeInfo and FaceInfo are the cells' combinatorial records:
// incidences and sign classes, no coordinates.  The topological invariant
// keeps them as its own records (invariant.FromComplex).  A record's Sign
// holds one sign class per region, indexed by schema position.

// VertexInfo is the combinatorial data of a 0-cell.
type VertexInfo struct {
	// Cone is the cyclic (counterclockwise) sequence of cells incident to
	// the vertex, alternating edge, face, edge, face, …  Faces may repeat.
	// It is empty for isolated vertices and has length 2 (edge, face) for
	// degree-1 vertices.
	Cone []CellRef
	// Face is the face whose closure contains the vertex.  For isolated
	// vertices this is the face containing the point; for other vertices it
	// is one of the incident faces (the first in the cone).
	Face int
	// Isolated reports whether the vertex has no incident edges.
	Isolated bool
	// Sign is the vertex's sign class per region, in schema order.
	Sign []Sign
}

// Degree returns the number of edge incidences at the vertex (a loop counts
// twice).
func (v *VertexInfo) Degree() int { return len(v.Cone) / 2 }

// EdgeInfo is the combinatorial data of a 1-cell.  V1/V2 are the endpoint
// vertex IDs:
//   - ordinary edge: V1 and V2 are distinct (a "proper edge" in the paper);
//   - loop: V1 == V2 (a closed curve through exactly one vertex);
//   - free loop: V1 == V2 == -1 (a closed curve with no vertex on it).
type EdgeInfo struct {
	V1, V2 int
	// Closed reports whether the edge is a closed curve (loop or free loop).
	Closed bool
	// Faces are the IDs of the faces incident to the edge (one or two
	// distinct values).
	Faces []int
	// Sign is the edge's sign class per region, in schema order.
	Sign []Sign
}

// IsProper reports whether the edge connects two distinct vertices
// (the paper's "proper edge").
func (e *EdgeInfo) IsProper() bool { return e.V1 >= 0 && e.V2 >= 0 && e.V1 != e.V2 }

// IsLoop reports whether the edge is a loop at a single vertex.
func (e *EdgeInfo) IsLoop() bool { return e.V1 >= 0 && e.V1 == e.V2 }

// IsFreeLoop reports whether the edge is a closed curve with no vertices.
func (e *EdgeInfo) IsFreeLoop() bool { return e.V1 < 0 && e.V2 < 0 }

// FaceInfo is the combinatorial data of a 2-cell.
type FaceInfo struct {
	// Exterior reports whether this is the unbounded exterior face.
	Exterior bool
	// Edges are the IDs of edges on the face's boundary.
	Edges []int
	// Vertices are the IDs of vertices adjacent to the face (on its
	// boundary or isolated inside it).
	Vertices []int
	// IsolatedVertices are the IDs of isolated vertices lying inside the
	// face (a subset of Vertices).
	IsolatedVertices []int
	// Sign is the face's sign class per region, in schema order (never
	// Boundary).
	Sign []Sign
}

// Vertex is a 0-cell of the complex: its record and its point.
type Vertex struct {
	ID    int
	Point geom.Point
	VertexInfo
}

// Edge is a 1-cell: a maximal open curve of the decomposition.  Its
// geometry is the polyline Chain; when the edge is Closed, the chain starts
// and ends at the same point.
type Edge struct {
	ID    int
	Chain []geom.Point
	EdgeInfo
}

// Midpoint returns a representative point on the open edge.
func (e *Edge) Midpoint() geom.Point {
	i := len(e.Chain) / 2
	if i == 0 {
		i = 1
	}
	return geom.Mid(e.Chain[i-1], e.Chain[i])
}

// Face is a 2-cell: its record and a point strictly inside it (Rep).
type Face struct {
	ID  int
	Rep geom.Point
	FaceInfo
}

// Complex is the maximum topological cell decomposition of a spatial
// instance.
type Complex struct {
	Schema   *spatial.Schema
	Vertices []*Vertex
	Edges    []*Edge
	Faces    []*Face
	// ExteriorFace is the ID of the unbounded face.
	ExteriorFace int
	// Stats carries construction statistics (degree distribution etc.).
	Stats Stats
}

// Stats records statistics about the construction, matching the measurements
// reported in the paper's practical-considerations section.
type Stats struct {
	InputSegments    int
	SubSegments      int
	FullVertices     int
	ReducedVertices  int
	ReducedEdges     int
	Faces            int
	IntersectionOps  int
	MaxLinesPerPoint int
	AvgLinesPerPoint float64
}

// Build computes the maximum topological cell decomposition of the instance.
// It trusts the instance's geometry: spatial.Instance.Set validated every
// region when the instance was built, so Build does not check it again.
func Build(inst *spatial.Instance) (*Complex, error) {
	start := time.Now()
	full, err := traceFaces(subdivide(inst))
	if err != nil {
		mBuilds.With("error").Inc()
		return nil, err
	}
	full.classify()
	cx := finish(full, inst)
	mBuildLatency.ObserveDuration(time.Since(start))
	mBuilds.With("ok").Inc()
	mSubSegments.Add(uint64(cx.Stats.SubSegments))
	mIntersectionOps.Add(uint64(cx.Stats.IntersectionOps))
	mFacesClassified.Add(uint64(cx.Stats.Faces))
	return cx, nil
}

// finish reduces the classified full subdivision to the maximum topological
// cell decomposition and records the construction statistics.
func finish(full *fullComplex, inst *spatial.Instance) *Complex {
	sub := full.sub
	cx := reduce(full)
	cx.Schema = inst.Schema()
	cx.Stats.InputSegments = len(sub.inputSegs)
	cx.Stats.SubSegments = len(sub.segments)
	cx.Stats.FullVertices = len(sub.points)
	cx.Stats.IntersectionOps = sub.intersectionOps
	cx.Stats.ReducedVertices = len(cx.Vertices)
	cx.Stats.ReducedEdges = len(cx.Edges)
	cx.Stats.Faces = len(cx.Faces)
	fillDegreeStats(cx)
	return cx
}

func fillDegreeStats(cx *Complex) {
	total, count, max := 0, 0, 0
	for _, v := range cx.Vertices {
		d := v.Degree()
		if d == 0 {
			continue
		}
		total += d
		count++
		if d > max {
			max = d
		}
	}
	cx.Stats.MaxLinesPerPoint = max
	if count > 0 {
		cx.Stats.AvgLinesPerPoint = float64(total) / float64(count)
	}
}
