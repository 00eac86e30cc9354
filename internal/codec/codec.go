// Package codec implements a deterministic, versioned binary encoding for
// spatial instances and topological invariants.
//
// The paper's headline practical claim is that top(I) is *small* relative to
// the raw spatial data; the rest of the repo estimates that ratio with the
// paper's bytes-per-point / bytes-per-cell accounting.  This package makes the
// claim measurable in real serialized bytes: Encode an instance, Encode its
// invariant, compare lengths.  It is also the substrate of the engine's
// content-addressed invariant cache — identical instances encode to identical
// bytes, so the hash of the encoding addresses the invariant.
//
// Wire format.  Every blob starts with a 6-byte header: the 4-byte magic
// "TINV", one format-version byte and one payload-kind byte.  The payload is
// a sequence of primitives:
//
//   - uvarint / varint — encoding/binary variable-length integers;
//   - string — uvarint length followed by the raw bytes;
//   - rational — tag 0 (int64 fast path: varint numerator, uvarint
//     denominator) or tag 1 (big path: sign byte, uvarint magnitude length,
//     big-endian numerator magnitude, then the positive denominator the same
//     way);
//   - a cell's sign classes are one byte per region, in schema order, so
//     encoding is deterministic for a fixed schema enumeration.
//
// Decoding validates the header, bounds-checks every index and rejects
// trailing garbage, so Decode(Encode(x)) is a structural identity and
// arbitrary bytes fail loudly rather than yielding a corrupt value.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"

	"repro/internal/geom"
	"repro/internal/invariant"
	"repro/internal/rat"
	"repro/internal/region"
	"repro/internal/spatial"
)

// Magic is the 4-byte signature opening every encoded blob.
const Magic = "TINV"

// Version is the current format version.  Decoders reject other versions.
const Version = 1

// Payload kinds.
const (
	// KindInstance marks an encoded spatial.Instance.
	KindInstance byte = 1
	// KindInvariant marks an encoded invariant.Invariant.
	KindInvariant byte = 2
)

const headerLen = len(Magic) + 2

// PayloadKind reports which payload a blob carries (KindInstance or
// KindInvariant) by inspecting its header, without decoding the payload.
func PayloadKind(data []byte) (byte, error) {
	if len(data) < headerLen {
		return 0, fmt.Errorf("codec: truncated header (%d bytes)", len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return 0, fmt.Errorf("codec: bad magic %q", data[:len(Magic)])
	}
	if v := data[len(Magic)]; v != Version {
		return 0, fmt.Errorf("codec: unsupported format version %d (want %d)", v, Version)
	}
	k := data[len(Magic)+1]
	if k != KindInstance && k != KindInvariant {
		return 0, fmt.Errorf("codec: unknown payload kind %d", k)
	}
	return k, nil
}

// rational encoding tags.
const (
	ratFast byte = 0
	ratBig  byte = 1
)

// EncodeInstance serializes the instance.  The encoding is deterministic:
// equal instances (same schema enumeration, same regions) produce identical
// bytes.
func EncodeInstance(inst *spatial.Instance) ([]byte, error) {
	if inst == nil {
		return nil, fmt.Errorf("codec: nil instance")
	}
	w := newWriter(KindInstance)
	names := inst.Schema().Names()
	w.uvarint(uint64(len(names)))
	for _, n := range names {
		w.string(n)
	}
	for _, n := range names {
		w.region(inst.Region(n))
	}
	return w.bytes(), nil
}

// DecodeInstance deserializes an instance encoded by EncodeInstance.
func DecodeInstance(data []byte) (*spatial.Instance, error) {
	r, err := newReader(data, KindInstance)
	if err != nil {
		return nil, err
	}
	n, err := r.count("schema size")
	if err != nil {
		return nil, err
	}
	names := make([]string, n)
	for i := range names {
		if names[i], err = r.string(); err != nil {
			return nil, err
		}
	}
	schema, err := spatial.NewSchema(names...)
	if err != nil {
		return nil, fmt.Errorf("codec: %w", err)
	}
	inst := spatial.NewInstance(schema)
	for _, name := range names {
		rg, err := r.region()
		if err != nil {
			return nil, fmt.Errorf("codec: region %q: %w", name, err)
		}
		if rg.IsEmpty() {
			continue
		}
		if err := inst.Set(name, rg); err != nil {
			return nil, fmt.Errorf("codec: %w", err)
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return inst, nil
}

// EncodeInvariant serializes the invariant.  Each cell's signs are written
// in schema order, so the encoding is deterministic.
func EncodeInvariant(inv *invariant.Invariant) ([]byte, error) {
	if inv == nil {
		return nil, fmt.Errorf("codec: nil invariant")
	}
	w := newWriter(KindInvariant)
	names := inv.Schema.Names()
	w.uvarint(uint64(len(names)))
	for _, n := range names {
		w.string(n)
	}
	w.uvarint(uint64(len(inv.Vertices)))
	w.uvarint(uint64(len(inv.Edges)))
	w.uvarint(uint64(len(inv.Faces)))
	w.uvarint(uint64(inv.ExteriorFace))
	for _, v := range inv.Vertices {
		w.uvarint(uint64(len(v.Cone)))
		for _, c := range v.Cone {
			w.cellRef(c)
		}
		w.uvarint(uint64(v.Face))
		w.bool(v.Isolated)
		w.signs(v.Sign)
	}
	for _, e := range inv.Edges {
		w.varint(int64(e.V1))
		w.varint(int64(e.V2))
		w.bool(e.Closed)
		w.intSlice(e.Faces)
		w.signs(e.Sign)
	}
	for _, f := range inv.Faces {
		w.bool(f.Exterior)
		w.intSlice(f.Edges)
		w.intSlice(f.Vertices)
		w.intSlice(f.IsolatedVertices)
		w.signs(f.Sign)
	}
	return w.bytes(), nil
}

// DecodeInvariant deserializes an invariant encoded by EncodeInvariant and
// checks its internal consistency via Invariant.Validate.
func DecodeInvariant(data []byte) (*invariant.Invariant, error) {
	r, err := newReader(data, KindInvariant)
	if err != nil {
		return nil, err
	}
	n, err := r.count("schema size")
	if err != nil {
		return nil, err
	}
	names := make([]string, n)
	for i := range names {
		if names[i], err = r.string(); err != nil {
			return nil, err
		}
	}
	schema, err := spatial.NewSchema(names...)
	if err != nil {
		return nil, fmt.Errorf("codec: %w", err)
	}
	nv, err := r.count("vertex count")
	if err != nil {
		return nil, err
	}
	ne, err := r.count("edge count")
	if err != nil {
		return nil, err
	}
	nf, err := r.count("face count")
	if err != nil {
		return nil, err
	}
	ext, err := r.count("exterior face")
	if err != nil {
		return nil, err
	}
	inv := &invariant.Invariant{
		Schema:       schema,
		Vertices:     make([]*invariant.VertexInfo, nv),
		Edges:        make([]*invariant.EdgeInfo, ne),
		Faces:        make([]*invariant.FaceInfo, nf),
		ExteriorFace: ext,
	}
	for i := range inv.Vertices {
		v := &invariant.VertexInfo{}
		coneLen, err := r.count("cone length")
		if err != nil {
			return nil, err
		}
		v.Cone = make([]invariant.CellRef, coneLen)
		for j := range v.Cone {
			if v.Cone[j], err = r.cellRef(); err != nil {
				return nil, err
			}
		}
		if v.Face, err = r.count("vertex face"); err != nil {
			return nil, err
		}
		if v.Isolated, err = r.bool(); err != nil {
			return nil, err
		}
		if v.Sign, err = r.signs(len(names)); err != nil {
			return nil, err
		}
		inv.Vertices[i] = v
	}
	for i := range inv.Edges {
		e := &invariant.EdgeInfo{}
		var err error
		if e.V1, err = r.int(); err != nil {
			return nil, err
		}
		if e.V2, err = r.int(); err != nil {
			return nil, err
		}
		if e.Closed, err = r.bool(); err != nil {
			return nil, err
		}
		if e.Faces, err = r.intSlice(); err != nil {
			return nil, err
		}
		if e.Sign, err = r.signs(len(names)); err != nil {
			return nil, err
		}
		inv.Edges[i] = e
	}
	for i := range inv.Faces {
		f := &invariant.FaceInfo{}
		var err error
		if f.Exterior, err = r.bool(); err != nil {
			return nil, err
		}
		if f.Edges, err = r.intSlice(); err != nil {
			return nil, err
		}
		if f.Vertices, err = r.intSlice(); err != nil {
			return nil, err
		}
		if f.IsolatedVertices, err = r.intSlice(); err != nil {
			return nil, err
		}
		if f.Sign, err = r.signs(len(names)); err != nil {
			return nil, err
		}
		inv.Faces[i] = f
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	if err := inv.Validate(); err != nil {
		return nil, fmt.Errorf("codec: decoded invariant invalid: %w", err)
	}
	return inv, nil
}

// --- writer ---

type writer struct {
	buf []byte
	tmp [binary.MaxVarintLen64]byte
}

func newWriter(kind byte) *writer {
	w := &writer{buf: make([]byte, 0, 256)}
	w.buf = append(w.buf, Magic...)
	w.buf = append(w.buf, Version, kind)
	return w
}

func (w *writer) bytes() []byte { return w.buf }

func (w *writer) uvarint(x uint64) {
	n := binary.PutUvarint(w.tmp[:], x)
	w.buf = append(w.buf, w.tmp[:n]...)
}

func (w *writer) varint(x int64) {
	n := binary.PutVarint(w.tmp[:], x)
	w.buf = append(w.buf, w.tmp[:n]...)
}

func (w *writer) bool(b bool) {
	if b {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

func (w *writer) string(s string) {
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *writer) intSlice(xs []int) {
	w.uvarint(uint64(len(xs)))
	for _, x := range xs {
		w.varint(int64(x))
	}
}

func (w *writer) rational(x rat.R) {
	if num, den, ok := x.Int64s(); ok {
		w.buf = append(w.buf, ratFast)
		w.varint(num)
		w.uvarint(uint64(den))
		return
	}
	num, den := x.Num(), x.Den()
	w.buf = append(w.buf, ratBig)
	switch num.Sign() {
	case -1:
		w.buf = append(w.buf, 2)
	case 0:
		w.buf = append(w.buf, 0)
	default:
		w.buf = append(w.buf, 1)
	}
	mag := num.Bytes()
	w.uvarint(uint64(len(mag)))
	w.buf = append(w.buf, mag...)
	mag = den.Bytes()
	w.uvarint(uint64(len(mag)))
	w.buf = append(w.buf, mag...)
}

func (w *writer) point(p geom.Point) {
	w.rational(p.X)
	w.rational(p.Y)
}

func (w *writer) ring(pts []geom.Point) {
	w.uvarint(uint64(len(pts)))
	for _, p := range pts {
		w.point(p)
	}
}

func (w *writer) region(rg region.Region) {
	w.uvarint(uint64(len(rg.Features)))
	for _, f := range rg.Features {
		w.buf = append(w.buf, byte(f.Dim))
		switch f.Dim {
		case region.Dim0:
			w.point(f.Point)
		case region.Dim1:
			w.ring(f.Line.Points)
		case region.Dim2:
			w.ring(f.Outer.Vertices)
			w.uvarint(uint64(len(f.Holes)))
			for _, h := range f.Holes {
				w.ring(h.Vertices)
			}
		}
	}
}

func (w *writer) cellRef(c invariant.CellRef) {
	w.buf = append(w.buf, byte(c.Kind))
	w.varint(int64(c.Index))
}

// signs writes a cell's signs, one byte per region in schema order.
func (w *writer) signs(signs []invariant.Sign) {
	for _, s := range signs {
		w.buf = append(w.buf, byte(s))
	}
}

// --- reader ---

type reader struct {
	data []byte
	pos  int
}

func newReader(data []byte, wantKind byte) (*reader, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("codec: truncated header (%d bytes)", len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("codec: bad magic %q", data[:len(Magic)])
	}
	if v := data[len(Magic)]; v != Version {
		return nil, fmt.Errorf("codec: unsupported format version %d (want %d)", v, Version)
	}
	if k := data[len(Magic)+1]; k != wantKind {
		return nil, fmt.Errorf("codec: payload kind %d, want %d", k, wantKind)
	}
	return &reader{data: data, pos: headerLen}, nil
}

func (r *reader) done() error {
	if r.pos != len(r.data) {
		return fmt.Errorf("codec: %d trailing bytes after payload", len(r.data)-r.pos)
	}
	return nil
}

func (r *reader) byte() (byte, error) {
	if r.pos >= len(r.data) {
		return 0, fmt.Errorf("codec: unexpected end of data")
	}
	b := r.data[r.pos]
	r.pos++
	return b, nil
}

func (r *reader) take(n int) ([]byte, error) {
	if n < 0 || r.pos+n > len(r.data) {
		return nil, fmt.Errorf("codec: unexpected end of data")
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

func (r *reader) uvarint() (uint64, error) {
	x, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("codec: bad uvarint at offset %d", r.pos)
	}
	r.pos += n
	return x, nil
}

func (r *reader) varint() (int64, error) {
	x, n := binary.Varint(r.data[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("codec: bad varint at offset %d", r.pos)
	}
	r.pos += n
	return x, nil
}

// count reads a uvarint that must fit a non-negative int and be plausibly
// bounded by the remaining input (every counted element costs at least one
// byte), so corrupt lengths fail instead of allocating gigabytes.
func (r *reader) count(what string) (int, error) {
	x, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if x > uint64(len(r.data)-r.pos)+1 || x > math.MaxInt32 {
		return 0, fmt.Errorf("codec: implausible %s %d", what, x)
	}
	return int(x), nil
}

func (r *reader) int() (int, error) {
	x, err := r.varint()
	if err != nil {
		return 0, err
	}
	if x < math.MinInt32 || x > math.MaxInt32 {
		return 0, fmt.Errorf("codec: integer %d out of range", x)
	}
	return int(x), nil
}

func (r *reader) bool() (bool, error) {
	b, err := r.byte()
	if err != nil {
		return false, err
	}
	switch b {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return false, fmt.Errorf("codec: bad bool byte %d", b)
	}
}

func (r *reader) string() (string, error) {
	n, err := r.count("string length")
	if err != nil {
		return "", err
	}
	b, err := r.take(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func (r *reader) intSlice() ([]int, error) {
	n, err := r.count("slice length")
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]int, n)
	for i := range out {
		if out[i], err = r.int(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (r *reader) rational() (rat.R, error) {
	tag, err := r.byte()
	if err != nil {
		return rat.Zero, err
	}
	switch tag {
	case ratFast:
		num, err := r.varint()
		if err != nil {
			return rat.Zero, err
		}
		den, err := r.uvarint()
		if err != nil {
			return rat.Zero, err
		}
		if den == 0 || den > math.MaxInt64 {
			return rat.Zero, fmt.Errorf("codec: bad denominator %d", den)
		}
		return rat.New(num, int64(den)), nil
	case ratBig:
		sign, err := r.byte()
		if err != nil {
			return rat.Zero, err
		}
		if sign > 2 {
			return rat.Zero, fmt.Errorf("codec: bad rational sign byte %d", sign)
		}
		n, err := r.count("numerator length")
		if err != nil {
			return rat.Zero, err
		}
		numMag, err := r.take(n)
		if err != nil {
			return rat.Zero, err
		}
		n, err = r.count("denominator length")
		if err != nil {
			return rat.Zero, err
		}
		denMag, err := r.take(n)
		if err != nil {
			return rat.Zero, err
		}
		num := new(big.Int).SetBytes(numMag)
		if sign == 2 {
			num.Neg(num)
		}
		den := new(big.Int).SetBytes(denMag)
		if den.Sign() == 0 {
			return rat.Zero, fmt.Errorf("codec: zero denominator")
		}
		return rat.FromBigRat(new(big.Rat).SetFrac(num, den)), nil
	default:
		return rat.Zero, fmt.Errorf("codec: bad rational tag %d", tag)
	}
}

func (r *reader) point() (geom.Point, error) {
	x, err := r.rational()
	if err != nil {
		return geom.Point{}, err
	}
	y, err := r.rational()
	if err != nil {
		return geom.Point{}, err
	}
	return geom.PtR(x, y), nil
}

func (r *reader) ring() ([]geom.Point, error) {
	n, err := r.count("ring length")
	if err != nil {
		return nil, err
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		if pts[i], err = r.point(); err != nil {
			return nil, err
		}
	}
	return pts, nil
}

func (r *reader) region() (region.Region, error) {
	n, err := r.count("feature count")
	if err != nil {
		return region.Region{}, err
	}
	if n == 0 {
		return region.Region{}, nil
	}
	features := make([]region.Feature, 0, n)
	for i := 0; i < n; i++ {
		dim, err := r.byte()
		if err != nil {
			return region.Region{}, err
		}
		switch region.Dimension(dim) {
		case region.Dim0:
			p, err := r.point()
			if err != nil {
				return region.Region{}, err
			}
			features = append(features, region.PointFeature(p))
		case region.Dim1:
			pts, err := r.ring()
			if err != nil {
				return region.Region{}, err
			}
			features = append(features, region.LineFeature(geom.Polyline{Points: pts}))
		case region.Dim2:
			outer, err := r.ring()
			if err != nil {
				return region.Region{}, err
			}
			nh, err := r.count("hole count")
			if err != nil {
				return region.Region{}, err
			}
			// nil (not empty) for hole-free polygons, so decoded features
			// are deeply equal to ones built by the constructors.
			var holes []geom.Polygon
			if nh > 0 {
				holes = make([]geom.Polygon, nh)
			}
			for j := range holes {
				hv, err := r.ring()
				if err != nil {
					return region.Region{}, err
				}
				holes[j] = geom.Polygon{Vertices: hv}
			}
			features = append(features, region.AreaFeature(geom.Polygon{Vertices: outer}, holes...))
		default:
			return region.Region{}, fmt.Errorf("codec: bad feature dimension %d", dim)
		}
	}
	// Unchecked: DecodeInstance hands the region to spatial.Instance.Set,
	// which validates it.
	return region.Region{Features: features}, nil
}

func (r *reader) cellRef() (invariant.CellRef, error) {
	kind, err := r.byte()
	if err != nil {
		return invariant.CellRef{}, err
	}
	k := invariant.CellKind(kind)
	if k != invariant.VertexCell && k != invariant.EdgeCell && k != invariant.FaceCell {
		return invariant.CellRef{}, fmt.Errorf("codec: bad cell kind %d", kind)
	}
	idx, err := r.int()
	if err != nil {
		return invariant.CellRef{}, err
	}
	return invariant.CellRef{Kind: k, Index: idx}, nil
}

// signs reads the n sign bytes of one cell, in schema order.
func (r *reader) signs(n int) ([]invariant.Sign, error) {
	out := make([]invariant.Sign, n)
	for i := range out {
		b, err := r.byte()
		if err != nil {
			return nil, err
		}
		s := invariant.Sign(b)
		if s != invariant.Exterior && s != invariant.Boundary && s != invariant.Interior {
			return nil, fmt.Errorf("codec: bad sign byte %d", b)
		}
		out[i] = s
	}
	return out, nil
}
