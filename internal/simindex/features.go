// Package simindex implements topological similarity retrieval over a
// corpus of invariants (the ROADMAP's "find instances topologically
// equivalent / similar to Q" workload, following "Topological Information
// Retrieval with Dilation-Invariant Bottleneck Comparative Measures").
//
// The index has two tiers:
//
//   - Exact tier: a stable, versioned canonical key (see CanonicalKey)
//     buckets invariants into homeomorphism equivalence classes, giving
//     O(1) lookup of every instance topologically equivalent to a probe.
//   - Approximate tier: a fixed-dimension feature vector extracted from
//     the invariant (Features) compared under a bottleneck-style L∞
//     distance (Distance), ranked by a linear scan over every entry
//     (see Index).
//
// Every derived quantity — the canonical key, the feature vector and the
// ranked result order — is answer identity: it must be a pure function of
// the invariant, independent of map iteration order or any other run-to-run
// nondeterminism. The topolint determinism analyzer covers this package.
package simindex

import (
	"math"
	"sort"

	"repro/internal/invariant"
)

// FeatureDim is the fixed dimensionality of feature vectors. It is part of
// the persistent index format: changing it (or any feature definition)
// requires bumping the codec version and the golden files.
const FeatureDim = 24

// Vector is a deterministic fixed-dimension feature vector summarizing an
// invariant's topology. Count-like coordinates are log1p-compressed so that
// the L∞ distance behaves like a dilation-tolerant comparative measure:
// uniformly scaling all counts by a factor shifts those coordinates by a
// comparable additive amount instead of blowing up a single coordinate.
// Euler's relation, V + ℓ − E + F = 1 + C with ℓ free loops, fixes the
// edge, cell and cycle-rank counts, so none is a coordinate.
// TestRetrievalQuality measures what the vector ranks.
type Vector [FeatureDim]float64

// Coordinate layout of Vector. Histogram groups are stored as fractions of
// their population (empty populations contribute zeros) so instances of
// different sizes remain comparable.
const (
	featVertices      = iota // log1p(#vertices)
	featFaces                // log1p(#faces)
	featComponents           // log1p(#components)
	featFreeLoops            // log1p(#free loops)
	featLoops                // log1p(#loops, endpoints equal)
	featProperEdges          // log1p(#proper edges)
	featIsolatedVerts        // log1p(#isolated vertices)
	featRegions              // log1p(#schema regions)
	featDeg0                 // vertex-degree histogram: fraction of degree 0
	featDeg1                 // … degree 1
	featDeg2                 // … degree 2
	featDeg3                 // … degree 3
	featDeg4                 // … degree 4
	featDeg5plus             // … degree ≥ 5
	featFaceDeg1             // face boundary-edge histogram: fraction with ≤ 1 edge
	featFaceDeg2             // … 2 edges
	featFaceDeg3             // … 3 edges
	featFaceDeg4             // … 4 edges
	featFaceDeg5plus         // … ≥ 5 edges
	featRegionCells          // fraction of (cell, region) pairs with the cell in the region's extent
	featSpecSkel1            // skeleton adjacency: log1p((tr A⁴ / n)^¼), spectral-radius bound
	featSpecSkel2            // skeleton adjacency: log1p((tr A³ / n)^⅓), triangle density
	featSpecDual1            // face-dual adjacency: log1p((tr A⁴ / n)^¼)
	featSpecDual2            // face-dual adjacency: log1p((tr A³ / n)^⅓)
)

// Features extracts the feature vector of an invariant. The result is a
// pure function of the invariant's combinatorial structure: it depends
// neither on map iteration order nor on the order of the schema's regions.
func Features(inv *invariant.Invariant) Vector {
	var v Vector

	nV, nE, nF := len(inv.Vertices), len(inv.Edges), len(inv.Faces)
	v[featVertices] = math.Log1p(float64(nV))
	v[featFaces] = math.Log1p(float64(nF))
	v[featComponents] = math.Log1p(float64(inv.Components().Count()))

	var freeLoops, loops, proper, isolated int
	for _, e := range inv.Edges {
		switch {
		case e.IsFreeLoop():
			freeLoops++
		case e.IsLoop():
			loops++
		default:
			proper++
		}
	}
	for _, vx := range inv.Vertices {
		if vx.Isolated {
			isolated++
		}
	}
	v[featFreeLoops] = math.Log1p(float64(freeLoops))
	v[featLoops] = math.Log1p(float64(loops))
	v[featProperEdges] = math.Log1p(float64(proper))
	v[featIsolatedVerts] = math.Log1p(float64(isolated))
	v[featRegions] = math.Log1p(float64(inv.Schema.Size()))

	// Vertex-degree histogram.
	if nV > 0 {
		var deg [6]int
		for _, vx := range inv.Vertices {
			d := vx.Degree()
			if d > 5 {
				d = 5
			}
			deg[d]++
		}
		for i, c := range deg {
			v[featDeg0+i] = float64(c) / float64(nV)
		}
	}

	// Face boundary-degree histogram (number of boundary edges per face).
	if nF > 0 {
		var fdeg [5]int
		for _, f := range inv.Faces {
			d := len(f.Edges)
			switch {
			case d <= 1:
				fdeg[0]++
			case d >= 5:
				fdeg[4]++
			default:
				fdeg[d-1]++
			}
		}
		for i, c := range fdeg {
			v[featFaceDeg1+i] = float64(c) / float64(nF)
		}
	}

	// Per-region occupancy: the mean over schema regions of the fraction of
	// cells contained in the region's extent, computed as one integer count
	// over one denominator so that no float sum depends on the schema order.
	if nr, nCells := inv.Schema.Size(), nV+nE+nF; nr > 0 && nCells > 0 {
		in := 0
		for _, c := range inv.Vertices {
			in += contained(c.Sign)
		}
		for _, c := range inv.Edges {
			in += contained(c.Sign)
		}
		for _, c := range inv.Faces {
			in += contained(c.Sign)
		}
		v[featRegionCells] = float64(in) / float64(nCells*nr)
	}

	// Spectral features: closed-walk moments of the skeleton adjacency
	// (vertices joined by proper edges) and of the face-dual adjacency
	// (faces joined by shared boundary edges). tr(A⁴)/n and tr(A³)/n are
	// the 4th and 3rd spectral moments — (tr(A⁴)/n)^¼ lower-bounds the
	// spectral radius, tr(A³) counts triangles. Walk counts are integers,
	// so the result is bit-exact across any relabeling of isomorphic
	// invariants (a float power iteration would leak summation order into
	// the last ULP).
	s4, s3 := walkMoments(skeletonAdjacency(inv), nV)
	v[featSpecSkel1], v[featSpecSkel2] = s4, s3
	d4, d3 := walkMoments(faceDualAdjacency(inv), nF)
	v[featSpecDual1], v[featSpecDual2] = d4, d3

	return v
}

// contained counts the regions whose extent contains a cell with the given
// signs.
func contained(signs []invariant.Sign) int {
	n := 0
	for _, s := range signs {
		if s != invariant.Exterior {
			n++
		}
	}
	return n
}

// skeletonAdjacency builds the vertex adjacency lists of the skeleton
// (proper edges only; loops and free loops do not connect distinct
// vertices).
func skeletonAdjacency(inv *invariant.Invariant) [][]int {
	adj := make([][]int, len(inv.Vertices))
	for _, e := range inv.Edges {
		if !e.IsProper() {
			continue
		}
		adj[e.V1] = append(adj[e.V1], e.V2)
		adj[e.V2] = append(adj[e.V2], e.V1)
	}
	return adj
}

// faceDualAdjacency builds the face adjacency lists of the dual graph: two
// faces are adjacent when they share a boundary edge.
func faceDualAdjacency(inv *invariant.Invariant) [][]int {
	adj := make([][]int, len(inv.Faces))
	for _, e := range inv.Edges {
		if len(e.Faces) == 2 && e.Faces[0] != e.Faces[1] {
			f1, f2 := e.Faces[0], e.Faces[1]
			adj[f1] = append(adj[f1], f2)
			adj[f2] = append(adj[f2], f1)
		}
	}
	return adj
}

// walkMoments computes log1p-compressed spectral moments of the adjacency
// graph: ((tr A⁴)/n)^¼ (a spectral-radius lower bound counting closed
// 4-walks) and ((tr A³)/n)^⅓ (triangle density). All walk counting is
// int64 arithmetic — Σ_j deg(j)² operations — so the values are bit-exact
// under any node relabeling; n ≤ 1 yields zeros.
func walkMoments(adj [][]int, n int) (m4, m3 float64) {
	if n <= 1 {
		return 0, 0
	}
	// c[k] = (A²)_{ik} for the current row i (2-walk counts).
	c := make([]int64, n)
	touched := make([]int, 0, n)
	var tr3, tr4 int64
	for i := range adj {
		for _, j := range adj[i] {
			for _, k := range adj[j] {
				if c[k] == 0 {
					touched = append(touched, k)
				}
				c[k]++
			}
		}
		for _, j := range adj[i] {
			tr3 += c[j] // closed 3-walks through i
		}
		for _, k := range touched {
			tr4 += c[k] * c[k] // closed 4-walks: Σ_k (A²)_{ik}²
			c[k] = 0
		}
		touched = touched[:0]
	}
	m4 = math.Log1p(math.Pow(float64(tr4)/float64(n), 0.25))
	m3 = math.Log1p(math.Cbrt(float64(tr3) / float64(n)))
	return m4, m3
}

// Distance is the bottleneck-style comparative measure between feature
// vectors: the L∞ (Chebyshev) distance. With log1p-compressed count
// coordinates, a uniform dilation of all counts moves every count
// coordinate by a comparable bounded amount, so the maximum-coordinate
// distance tolerates dilation instead of being dominated by raw size.
func Distance(a, b Vector) float64 {
	max := 0.0
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > max {
			max = d
		}
	}
	return max
}

// sortedCopy returns a sorted copy of the names (the canonical key must
// not mutate the schema's slice).
func sortedCopy(xs []string) []string {
	out := make([]string, len(xs))
	copy(out, xs)
	sort.Strings(out)
	return out
}
