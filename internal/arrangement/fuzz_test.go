package arrangement

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/rat"
	"repro/internal/region"
	"repro/internal/spatial"
	"repro/internal/workload"
)

// FuzzSweepSubdivisionVsNaive is the end-to-end differential harness for the
// sweep-built arrangement: every fuzz input decodes into a small
// multi-feature instance that is built twice — once on the default sweep
// pipeline (exact Bentley–Ottmann subdivision, sweep-order face location,
// combinatorial classification) and once on the quadratic all-pairs
// point-location reference — and the two complexes must agree cell for cell:
// same vertex set with the same sign classes, the same edge multiset and the
// same face sign multiset.
//
// Inputs decode as a stream of feature records on a small integer grid
// (rects, triangles and general rings, short polylines, isolated points,
// dealt round-robin to three regions); small coordinates maximise the
// degeneracy rate — shared borders, collinear overlaps, vertical stacks,
// crossings through vertices — which is exactly where the two pipelines
// could drift apart.

const fuzzRegionCount = 3

var fuzzRegionNames = []string{"P", "Q", "R"}

func fzCoord(b byte) int64 { return int64(int8(b)) % 16 }

// decodeInstance turns fuzz bytes into a validated spatial instance, or
// ok=false when the bytes do not form one (invalid features, no features).
func decodeInstance(data []byte) (*spatial.Instance, bool) {
	const maxFeatures = 24
	feats := make(map[string][]region.Feature)
	i, n := 0, 0
decode:
	for i < len(data) && n < maxFeatures {
		kind := data[i] % 4
		i++
		name := fuzzRegionNames[n%fuzzRegionCount]
		n++
		switch kind {
		case 0: // axis-aligned rectangle
			if i+4 > len(data) {
				break decode
			}
			x0, y0 := fzCoord(data[i]), fzCoord(data[i+1])
			w, h := int64(data[i+2]%8)+1, int64(data[i+3]%8)+1
			i += 4
			feats[name] = append(feats[name], region.AreaFeature(geom.Rect(x0, y0, x0+w, y0+h)))
		case 1: // short polyline
			if i+1 > len(data) {
				break decode
			}
			np := int(data[i]%3) + 2
			i++
			var pts []geom.Point
			for k := 0; k < np; k++ {
				if i+2 > len(data) {
					break decode
				}
				pts = append(pts, geom.Pt(fzCoord(data[i]), fzCoord(data[i+1])))
				i += 2
			}
			pl, err := geom.NewPolyline(pts)
			if err != nil {
				continue
			}
			feats[name] = append(feats[name], region.LineFeature(pl))
		case 2: // isolated point
			if i+2 > len(data) {
				break decode
			}
			feats[name] = append(feats[name], region.PointFeature(geom.Pt(fzCoord(data[i]), fzCoord(data[i+1]))))
			i += 2
		case 3: // general ring
			if i+1 > len(data) {
				break decode
			}
			np := int(data[i]%6) + 3
			i++
			var pts []geom.Point
			for k := 0; k < np; k++ {
				if i+2 > len(data) {
					break decode
				}
				pts = append(pts, geom.Pt(fzCoord(data[i]), fzCoord(data[i+1])))
				i += 2
			}
			feats[name] = append(feats[name], region.AreaFeature(geom.Polygon{Vertices: pts}))
		}
	}
	regs := make(map[string]region.Region)
	var names []string
	for _, name := range fuzzRegionNames {
		if len(feats[name]) == 0 {
			continue
		}
		r, err := region.New(feats[name]...)
		if err != nil {
			return nil, false
		}
		regs[name] = r
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil, false
	}
	sc, err := spatial.NewSchema(names...)
	if err != nil {
		return nil, false
	}
	inst, err := spatial.Build(sc, regs)
	if err != nil {
		return nil, false
	}
	return inst, true
}

// encodeFeature is the seeding inverse of decodeInstance for one feature
// (coordinates are clipped onto the fuzz grid; seeds carry structure, not
// exact embeddings).
func encodeFeature(f region.Feature) []byte {
	cb := func(r geom.Point) []byte {
		return []byte{byte(int8(r.X.Float())), byte(int8(r.Y.Float()))}
	}
	switch f.Dim {
	case region.Dim0:
		return append([]byte{2}, cb(f.Point)...)
	case region.Dim1:
		pts := f.Line.Points
		if len(pts) > 4 {
			pts = pts[:4]
		}
		out := []byte{1, byte(len(pts) - 2)}
		for _, p := range pts {
			out = append(out, cb(p)...)
		}
		return out
	default:
		vs := f.Outer.Vertices
		if len(vs) > 8 {
			vs = vs[:8]
		}
		out := []byte{3, byte(len(vs) - 3)}
		for _, p := range vs {
			out = append(out, cb(p)...)
		}
		return out
	}
}

// signSummary renders a cell's signs with their region names.
func signSummary(names []string, signs []Sign) string {
	s := ""
	for i, n := range names {
		s += n + "=" + signs[i].String() + ";"
	}
	return s
}

// complexSummary flattens a complex into three sorted string multisets that
// are invariant under cell renumbering and chain orientation.
func complexSummary(cx *Complex) (verts, edges, faces []string) {
	names := cx.Schema.Names()
	for _, v := range cx.Vertices {
		verts = append(verts, v.Point.String()+"|"+signSummary(names, v.Sign))
	}
	for _, e := range cx.Edges {
		anchor := e.Chain[0].String()
		for _, p := range e.Chain[1:] {
			if k := p.String(); k < anchor {
				anchor = k
			}
		}
		edges = append(edges, fmt.Sprintf("%s|n=%d|closed=%v|%s",
			anchor, len(e.Chain), e.Closed, signSummary(names, e.Sign)))
	}
	for _, f := range cx.Faces {
		faces = append(faces, fmt.Sprintf("ext=%v|%s", f.ID == cx.ExteriorFace, signSummary(names, f.Sign)))
	}
	sort.Strings(verts)
	sort.Strings(edges)
	sort.Strings(faces)
	return verts, edges, faces
}

func diffStrings(kind string, a, b []string) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%s count %d vs %d", kind, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Sprintf("%s[%d]: sweep %q vs naive %q", kind, i, a[i], b[i])
		}
	}
	return ""
}

func FuzzSweepSubdivisionVsNaive(f *testing.F) {
	// Workload-derived seeds: all five generators' realistic degeneracy
	// sources, one record stream per instance.
	for _, w := range fuzzWorkloadInstances(f) {
		var seed []byte
		for _, name := range w.inst.SortedNames() {
			for _, feat := range w.inst.Region(name).Features {
				if len(seed) > 160 {
					break
				}
				seed = append(seed, encodeFeature(feat)...)
			}
		}
		f.Add(seed)
	}
	// Hand-built degenerates.
	hand := [][]region.Feature{
		{ // vertical stack: collinear vertical segments sharing x
			region.LineFeature(geom.MustPolyline(geom.Pt(2, 0), geom.Pt(2, 4))),
			region.LineFeature(geom.MustPolyline(geom.Pt(2, 2), geom.Pt(2, 8))),
			region.LineFeature(geom.MustPolyline(geom.Pt(2, 8), geom.Pt(2, 12))),
		},
		{ // shared endpoints: a star of segments from one junction
			region.LineFeature(geom.MustPolyline(geom.Pt(0, 0), geom.Pt(4, 4))),
			region.LineFeature(geom.MustPolyline(geom.Pt(4, 4), geom.Pt(8, 0))),
			region.LineFeature(geom.MustPolyline(geom.Pt(4, 4), geom.Pt(4, 9))),
			region.PointFeature(geom.Pt(4, 4)),
		},
		{ // collinear overlaps: horizontal segments overlapping pairwise
			region.LineFeature(geom.MustPolyline(geom.Pt(0, 3), geom.Pt(6, 3))),
			region.LineFeature(geom.MustPolyline(geom.Pt(4, 3), geom.Pt(10, 3))),
			region.AreaFeature(geom.Rect(0, 0, 6, 3)),
		},
		{ // '#' grid: the inner face's edges start where a vertical crosses
			// them, which is no sweep event
			region.LineFeature(geom.MustPolyline(geom.Pt(0, 3), geom.Pt(9, 3))),
			region.LineFeature(geom.MustPolyline(geom.Pt(0, 6), geom.Pt(9, 6))),
			region.LineFeature(geom.MustPolyline(geom.Pt(3, 0), geom.Pt(3, 9))),
			region.LineFeature(geom.MustPolyline(geom.Pt(6, 0), geom.Pt(6, 9))),
		},
		{ // a line along a rectangle's top edge: a collinear overlap
			// bounding a face
			region.AreaFeature(geom.Rect(0, 0, 6, 4)),
			region.LineFeature(geom.MustPolyline(geom.Pt(-2, 4), geom.Pt(9, 4))),
		},
		// Face tracing's turn test and sweep-order hole assignment.  Features
		// are dealt to P, Q, R in turn, so the points between two polygons
		// give both polygons to P.
		{ // two polygons touching at their shared leftmost vertex, which
			// the component's outer walk visits twice
			region.AreaFeature(geom.MustPolygon(geom.Pt(0, 0), geom.Pt(6, 1), geom.Pt(6, 4))),
			region.PointFeature(geom.Pt(-9, 9)),
			region.PointFeature(geom.Pt(-9, -9)),
			region.AreaFeature(geom.MustPolygon(geom.Pt(0, 0), geom.Pt(6, -4), geom.Pt(6, -1))),
		},
		{ // the same, traced in the other order
			region.AreaFeature(geom.MustPolygon(geom.Pt(0, 0), geom.Pt(6, -4), geom.Pt(6, -1))),
			region.PointFeature(geom.Pt(-9, 9)),
			region.PointFeature(geom.Pt(-9, -9)),
			region.AreaFeature(geom.MustPolygon(geom.Pt(0, 0), geom.Pt(6, 1), geom.Pt(6, 4))),
		},
		{ // the same with an edge straight up from the shared vertex
			region.AreaFeature(geom.MustPolygon(geom.Pt(0, 0), geom.Pt(3, 2), geom.Pt(0, 5))),
			region.PointFeature(geom.Pt(-9, 9)),
			region.PointFeature(geom.Pt(-9, -9)),
			region.AreaFeature(geom.MustPolygon(geom.Pt(0, 0), geom.Pt(5, -1), geom.Pt(5, 1))),
		},
		{ // a line from its component's lowest vertex, inside a square
			region.LineFeature(geom.MustPolyline(geom.Pt(0, 0), geom.Pt(4, 3), geom.Pt(8, 0))),
			region.AreaFeature(geom.Rect(-5, -5, 15, 15)),
		},
		{ // a square above another and a point above both: each is blocked
			// by the outer walk of the component below it
			region.AreaFeature(geom.Rect(0, 0, 6, 6)),
			region.AreaFeature(geom.Rect(1, 8, 3, 10)),
			region.PointFeature(geom.Pt(2, 13)),
			region.PointFeature(geom.Pt(2, 9)),
		},
		{ // a rectangle standing on a line and a point above its right
			// side: the column vertex below the point is above the segment
			// the sweep saw below it
			region.AreaFeature(geom.Rect(2, 0, 5, 5)),
			region.LineFeature(geom.MustPolyline(geom.Pt(0, 0), geom.Pt(10, 0))),
			region.PointFeature(geom.Pt(5, 8)),
		},
	}
	for _, feats := range hand {
		var seed []byte
		for _, ft := range feats {
			seed = append(seed, encodeFeature(ft)...)
		}
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 192 {
			// The naive reference is quadratic; keep the loop fast.
			t.Skip()
		}
		inst, ok := decodeInstance(data)
		if !ok {
			return
		}
		checkAgainstReference(t, inst)
	})
}

// checkAgainstReference builds the instance with Build and with the
// quadratic reference and requires the two complexes to agree cell for cell,
// with valid face representatives on both.
func checkAgainstReference(t *testing.T, inst *spatial.Instance) {
	t.Helper()
	a, aerr := Build(inst)
	b, berr := buildReference(inst)
	if (aerr == nil) != (berr == nil) {
		t.Fatalf("build verdicts differ: sweep %v, naive %v", aerr, berr)
	}
	if aerr != nil {
		return
	}
	av, ae, af := complexSummary(a)
	bv, be, bf := complexSummary(b)
	for _, d := range []string{
		diffStrings("vertex", av, bv),
		diffStrings("edge", ae, be),
		diffStrings("face", af, bf),
	} {
		if d != "" {
			t.Fatalf("sweep vs naive complex mismatch: %s", d)
		}
	}
	checkFaceReps(t, "sweep", inst, a)
	checkFaceReps(t, "naive", inst, b)
	checkWitnessesDistinct(t, "sweep", a)
	checkWitnessesDistinct(t, "naive", b)
}

// TestSweepAndReferenceAgreeOnWorkloads runs the fuzz target's comparison on
// inputs the fuzzer never reaches: each workload generator's full scale-1
// instance, and the same instance mapped onto the 10⁻⁷ grid GeoJSON import
// snaps to (scaled by 37·10⁻⁷ and moved near (180, −90)), whose numerators
// overflow 64-bit intermediates and reach math/big.
func TestSweepAndReferenceAgreeOnWorkloads(t *testing.T) {
	k := rat.New(37, 10_000_000)
	dx, dy := rat.New(1_799_999_993, 10_000_000), rat.New(-899_999_997, 10_000_000)
	for _, w := range fuzzWorkloadInstances(t) {
		regs := make(map[string]region.Region)
		for _, n := range w.inst.SortedNames() {
			regs[n] = w.inst.Region(n).Scale(k).Translate(dx, dy)
		}
		grid, err := spatial.Build(w.inst.Schema(), regs)
		if err != nil {
			t.Fatalf("%s on the import grid: %v", w.name, err)
		}
		t.Run(w.name, func(t *testing.T) { checkAgainstReference(t, w.inst) })
		t.Run(w.name+"-grid", func(t *testing.T) { checkAgainstReference(t, grid) })
	}
}

// checkFaceReps is the face-representative oracle: every face's Rep lies on
// no edge chain and no vertex, and locating it in every region gives exactly
// the face's combinatorial sign — never the region's boundary, Interior iff
// the region's interior contains it.
func checkFaceReps(t *testing.T, which string, inst *spatial.Instance, cx *Complex) {
	t.Helper()
	for _, f := range cx.Faces {
		for _, v := range cx.Vertices {
			if v.Point.Equal(f.Rep) {
				t.Fatalf("%s: face %d rep %v is vertex %d", which, f.ID, f.Rep, v.ID)
			}
		}
		for _, e := range cx.Edges {
			for i := 0; i+1 < len(e.Chain); i++ {
				if geom.Seg(e.Chain[i], e.Chain[i+1]).ContainsPoint(f.Rep) {
					t.Fatalf("%s: face %d rep %v lies on edge %d", which, f.ID, f.Rep, e.ID)
				}
			}
		}
		for ri, name := range inst.Schema().Names() {
			r := inst.Region(name)
			want := Exterior
			switch {
			case r.OnBoundary(f.Rep):
				t.Fatalf("%s: face %d rep %v on the boundary of %s", which, f.ID, f.Rep, name)
			case r.ContainsInterior(f.Rep):
				want = Interior
			}
			if got := f.Sign[ri]; got != want {
				t.Fatalf("%s: face %d rep %v: sign in %s is %v, location says %v", which, f.ID, f.Rep, name, got, want)
			}
		}
	}
}

// checkWitnessesDistinct requires the cells' witnesses — vertex points,
// edge midpoints and face representatives — to be pairwise distinct.  The
// point sample takes one witness per cell and keeps them all, so two cells
// sharing a witness would put one point in the sample twice.
func checkWitnessesDistinct(t *testing.T, which string, cx *Complex) {
	t.Helper()
	seen := make(map[geom.PointKey]CellRef)
	add := func(p geom.Point, c CellRef) {
		if prev, dup := seen[p.Key()]; dup {
			t.Fatalf("%s: %v and %v share the witness %v", which, prev, c, p)
		}
		seen[p.Key()] = c
	}
	for _, v := range cx.Vertices {
		add(v.Point, CellRef{VertexCell, v.ID})
	}
	for _, e := range cx.Edges {
		add(e.Midpoint(), CellRef{EdgeCell, e.ID})
	}
	for _, f := range cx.Faces {
		add(f.Rep, CellRef{FaceCell, f.ID})
	}
}

// workloadInstance is one workload generator's instance, with the
// generator's name.
type workloadInstance struct {
	name string
	inst *spatial.Instance
}

// fuzzWorkloadInstances returns all five workload generators' instances.
func fuzzWorkloadInstances(t testing.TB) []workloadInstance {
	t.Helper()
	var out []workloadInstance
	add := func(name string, inst *spatial.Instance, err error) {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, workloadInstance{name, inst})
	}
	inst, err := workload.LandUse(workload.DefaultLandUse(1))
	add("landuse", inst, err)
	inst, err = workload.Hydrography(workload.DefaultHydrography(1))
	add("hydrography", inst, err)
	inst, err = workload.Commune(workload.DefaultCommune(1))
	add("commune", inst, err)
	inst, err = workload.NestedRegions(3)
	add("nested", inst, err)
	inst, err = workload.MultiComponent(4)
	add("multicomponent", inst, err)
	return out
}
