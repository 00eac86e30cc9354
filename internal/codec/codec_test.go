package codec

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/invariant"
	"repro/internal/rat"
	"repro/internal/region"
	"repro/internal/spatial"
	"repro/internal/workload"
)

// generators is the full workload-generator suite at pinned scales; codec
// round-trips must hold for every instance they produce.  Shared by the
// round-trip, golden and fuzz-seed tests so a new generator cannot be added
// to one table and silently miss the others.
func generators(t testing.TB) map[string]*spatial.Instance {
	t.Helper()
	out := make(map[string]*spatial.Instance)
	add := func(name string, inst *spatial.Instance, err error) {
		if err != nil {
			t.Fatalf("workload %s: %v", name, err)
		}
		out[name] = inst
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

// instancesEqual checks structural equality of two instances: same schema
// enumeration and identical features point for point.
func instancesEqual(t *testing.T, a, b *spatial.Instance) {
	t.Helper()
	an, bn := a.Schema().Names(), b.Schema().Names()
	if len(an) != len(bn) {
		t.Fatalf("schema size mismatch: %d vs %d", len(an), len(bn))
	}
	for i := range an {
		if an[i] != bn[i] {
			t.Fatalf("schema order mismatch at %d: %q vs %q", i, an[i], bn[i])
		}
	}
	for _, name := range an {
		ra, rb := a.Region(name), b.Region(name)
		if len(ra.Features) != len(rb.Features) {
			t.Fatalf("region %q: feature count %d vs %d", name, len(ra.Features), len(rb.Features))
		}
		for i := range ra.Features {
			fa, fb := ra.Features[i], rb.Features[i]
			if fa.Dim != fb.Dim {
				t.Fatalf("region %q feature %d: dim %v vs %v", name, i, fa.Dim, fb.Dim)
			}
			switch fa.Dim {
			case region.Dim0:
				if !fa.Point.Equal(fb.Point) {
					t.Fatalf("region %q feature %d: point %v vs %v", name, i, fa.Point, fb.Point)
				}
			case region.Dim1:
				pointsEqual(t, name, fa.Line.Points, fb.Line.Points)
			case region.Dim2:
				pointsEqual(t, name, fa.Outer.Vertices, fb.Outer.Vertices)
				if len(fa.Holes) != len(fb.Holes) {
					t.Fatalf("region %q feature %d: hole count %d vs %d", name, i, len(fa.Holes), len(fb.Holes))
				}
				for h := range fa.Holes {
					pointsEqual(t, name, fa.Holes[h].Vertices, fb.Holes[h].Vertices)
				}
			}
		}
	}
}

func pointsEqual(t *testing.T, name string, a, b []geom.Point) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("region %q: point count %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("region %q point %d: %v vs %v", name, i, a[i], b[i])
		}
	}
}

func TestInstanceRoundTripAllWorkloads(t *testing.T) {
	for name, inst := range generators(t) {
		t.Run(name, func(t *testing.T) {
			data, err := EncodeInstance(inst)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			got, err := DecodeInstance(data)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			instancesEqual(t, inst, got)

			// Determinism: re-encoding the decoded instance reproduces the
			// bytes exactly, so content addressing is stable.
			again, err := EncodeInstance(got)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(data, again) {
				t.Fatalf("encoding is not deterministic: %d vs %d bytes", len(data), len(again))
			}
		})
	}
}

func TestInvariantRoundTripAllWorkloads(t *testing.T) {
	for name, inst := range generators(t) {
		t.Run(name, func(t *testing.T) {
			inv, err := invariant.Compute(inst)
			if err != nil {
				t.Fatalf("compute: %v", err)
			}
			data, err := EncodeInvariant(inv)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			got, err := DecodeInvariant(data)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("decoded invariant does not validate: %v", err)
			}
			if got.CellCount() != inv.CellCount() {
				t.Fatalf("cell count %d, want %d", got.CellCount(), inv.CellCount())
			}
			if !invariant.Isomorphic(inv, got) {
				t.Fatal("decoded invariant is not isomorphic to the original")
			}
			again, err := EncodeInvariant(got)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(data, again) {
				t.Fatalf("encoding is not deterministic: %d vs %d bytes", len(data), len(again))
			}
		})
	}
}

// TestRationalRoundTrip exercises the codec on coordinates exceeding the
// int64 fast path (the big-rational encoding branch).
func TestRationalRoundTrip(t *testing.T) {
	huge := rat.MustParse("92233720368547758079223372036854775807") // > MaxInt64²
	tiny := rat.One.Div(huge)
	pts := []geom.Point{
		geom.Pt(0, 0),
		geom.PtR(huge, tiny),
		geom.PtR(tiny.Neg(), huge.Neg()),
		geom.PtR(rat.New(-7, 3), rat.New(22, 7)),
	}
	schema := spatial.MustSchema("P")
	inst := spatial.MustBuild(schema, map[string]region.Region{
		"P": region.Must(
			region.PointFeature(pts[0]),
			region.PointFeature(pts[1]),
			region.PointFeature(pts[2]),
			region.PointFeature(pts[3]),
		),
	})
	data, err := EncodeInstance(inst)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeInstance(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	instancesEqual(t, inst, got)
}

func TestDecodeRejectsCorruptInput(t *testing.T) {
	inst, err := workload.NestedRegions(2)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeInstance(inst)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := DecodeInstance(nil); err == nil {
		t.Error("nil input: want error")
	}
	if _, err := DecodeInstance(data[:3]); err == nil {
		t.Error("truncated header: want error")
	}
	bad := append([]byte("XXXX"), data[4:]...)
	if _, err := DecodeInstance(bad); err == nil {
		t.Error("bad magic: want error")
	}
	bad = append([]byte(nil), data...)
	bad[4] = Version + 1
	if _, err := DecodeInstance(bad); err == nil {
		t.Error("future version: want error")
	}
	if _, err := DecodeInvariant(data); err == nil {
		t.Error("kind mismatch (instance bytes as invariant): want error")
	}
	if _, err := DecodeInstance(data[:len(data)-1]); err == nil {
		t.Error("truncated payload: want error")
	}
	if _, err := DecodeInstance(append(append([]byte(nil), data...), 0)); err == nil {
		t.Error("trailing garbage: want error")
	}

	inv, err := invariant.Compute(inst)
	if err != nil {
		t.Fatal(err)
	}
	idata, err := EncodeInvariant(inv)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeInvariant(idata[:len(idata)-1]); err == nil {
		t.Error("truncated invariant payload: want error")
	}
	if _, err := DecodeInstance(idata); err == nil {
		t.Error("kind mismatch (invariant bytes as instance): want error")
	}

	// A well-formed invariant with one extra empty face passes every
	// incidence check, but not Euler's relation.
	inv.Faces = append(inv.Faces, &invariant.FaceInfo{Sign: make([]invariant.Sign, inst.Schema().Size())})
	if idata, err = EncodeInvariant(inv); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeInvariant(idata); err == nil || !strings.Contains(err.Error(), "Euler") {
		t.Errorf("extra empty face: got %v, want Euler's relation error", err)
	}
}

// areaBlob encodes a one-region instance "P" holding a single area feature
// with the package's writer directly.  EncodeInstance only ever sees valid
// instances, so this is how a test gets well-formed bytes that describe
// invalid geometry.
func areaBlob(outer geom.Polygon, holes ...geom.Polygon) []byte {
	w := newWriter(KindInstance)
	w.uvarint(1)
	w.string("P")
	w.region(region.Region{Features: []region.Feature{region.AreaFeature(outer, holes...)}})
	return w.bytes()
}

// TestDecodeRejectsInvalidGeometry pins that a blob which parses cleanly is
// still rejected when its geometry is invalid: the decoder's only check is
// the one spatial.Instance.Set runs, and it must not be skipped.
func TestDecodeRejectsInvalidGeometry(t *testing.T) {
	square := geom.Rect(0, 0, 8, 8)
	cases := []struct {
		name string
		data []byte
		want string // error substring; "" means the blob decodes
	}{
		{"valid square", areaBlob(square), ""},
		{"bowtie", areaBlob(geom.Polygon{Vertices: []geom.Point{
			geom.Pt(0, 0), geom.Pt(5, 0), geom.Pt(5, 5), geom.Pt(1, -1)}}),
			"not a simple polygon"},
		{"hole touches outer ring", areaBlob(square, geom.Polygon{Vertices: []geom.Point{
			geom.Pt(0, 0), geom.Pt(3, 1), geom.Pt(1, 3)}}),
			"touches the outer ring"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeInstance(tc.data)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("decode: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("decode error %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestMeasuredCompression sanity-checks the headline claim on real serialized
// bytes: the encoded invariant of a dense polygonal workload is smaller than
// the encoded instance.
func TestMeasuredCompression(t *testing.T) {
	inst, err := workload.LandUse(workload.DefaultLandUse(1))
	if err != nil {
		t.Fatal(err)
	}
	inv, err := invariant.Compute(inst)
	if err != nil {
		t.Fatal(err)
	}
	instBytes, err := EncodeInstance(inst)
	if err != nil {
		t.Fatal(err)
	}
	invBytes, err := EncodeInvariant(inv)
	if err != nil {
		t.Fatal(err)
	}
	if len(invBytes) >= len(instBytes) {
		t.Errorf("encoded invariant (%d B) is not smaller than encoded instance (%d B)", len(invBytes), len(instBytes))
	}
}
