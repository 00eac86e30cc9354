package main

import (
	"fmt"
	"math/big"
	"strconv"
	"strings"

	"repro/internal/geom"
	"repro/internal/rat"
	"repro/internal/region"
	"repro/internal/spatial"
)

// encodeGeoJSON writes an instance as a GeoJSON FeatureCollection, one
// Feature per region feature with the region name in the "name" property.
// Empty regions have no features, so they do not appear in the document and
// the imported schema lists only the non-empty ones. Every rational
// coordinate is rounded to the nearest float64, so a border two parcels
// share stays shared after the importer snaps it to its decimal grid.
func encodeGeoJSON(inst *spatial.Instance) []byte {
	var b strings.Builder
	b.WriteString(`{"type":"FeatureCollection","features":[`)
	first := true
	for _, name := range inst.Schema().Names() {
		for _, f := range inst.Region(name).Features {
			if !first {
				b.WriteByte(',')
			}
			first = false
			fmt.Fprintf(&b, `{"type":"Feature","properties":{"name":%s},"geometry":`, strconv.Quote(name))
			writeGeometry(&b, f)
			b.WriteByte('}')
		}
	}
	b.WriteString(`]}`)
	return []byte(b.String())
}

func writeGeometry(b *strings.Builder, f region.Feature) {
	switch f.Dim {
	case region.Dim0:
		b.WriteString(`{"type":"Point","coordinates":`)
		writePosition(b, f.Point)
	case region.Dim1:
		b.WriteString(`{"type":"LineString","coordinates":`)
		writePositions(b, f.Line.Points, false)
	default:
		b.WriteString(`{"type":"Polygon","coordinates":[`)
		writePositions(b, f.Outer.Vertices, true)
		for _, h := range f.Holes {
			b.WriteByte(',')
			writePositions(b, h.Vertices, true)
		}
		b.WriteByte(']')
	}
	b.WriteByte('}')
}

// writePositions writes a position array; closed repeats the first position
// at the end, as GeoJSON linear rings require.
func writePositions(b *strings.Builder, pts []geom.Point, closed bool) {
	b.WriteByte('[')
	for i, p := range pts {
		if i > 0 {
			b.WriteByte(',')
		}
		writePosition(b, p)
	}
	if closed && len(pts) > 0 {
		b.WriteByte(',')
		writePosition(b, pts[0])
	}
	b.WriteByte(']')
}

func writePosition(b *strings.Builder, p geom.Point) {
	b.WriteByte('[')
	b.WriteString(coord(p.X))
	b.WriteByte(',')
	b.WriteString(coord(p.Y))
	b.WriteByte(']')
}

// coord renders an exact rational as the shortest decimal that reads back as
// its correctly rounded float64.
func coord(r rat.R) string {
	f, _ := new(big.Rat).SetFrac(r.Num(), r.Den()).Float64()
	return strconv.FormatFloat(f, 'g', -1, 64)
}
