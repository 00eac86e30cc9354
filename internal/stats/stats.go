// Package stats computes the size and degree statistics reported in the
// paper's practical-considerations section: raw data size (stored points ×
// bytes per point), invariant size (cells × bytes per cell), their ratio, and
// the lines-per-point degree distribution.
package stats

import (
	"fmt"

	"repro/internal/arrangement"
	"repro/internal/codec"
	"repro/internal/invariant"
	"repro/internal/spatial"
)

// Compression summarises one dataset in the paper's terms.
type Compression struct {
	Name          string
	Features      int
	Points        int
	BytesPerPoint int
	RawBytes      int
	Cells         int
	BytesPerCell  int
	InvBytes      int
	// Ratio is RawBytes / InvBytes (the paper reports "1/90", "1/300",
	// "1/72" as the inverse).
	Ratio float64
	// AvgDegree and MaxDegree are the lines-per-point statistics.
	AvgDegree float64
	MaxDegree int

	// MeasuredRawBytes and MeasuredInvBytes are the actual serialized sizes
	// of the instance and the invariant under the internal/codec binary
	// format — the measured counterpart of the paper's estimated accounting
	// above.
	MeasuredRawBytes int
	MeasuredInvBytes int
	// MeasuredRatio is MeasuredRawBytes / MeasuredInvBytes.
	MeasuredRatio float64
}

// Measure computes the compression summary of an instance, building its cell
// complex once.
func Measure(name string, inst *spatial.Instance, bytesPerPoint, bytesPerCell int) (Compression, error) {
	cx, err := arrangement.Build(inst)
	if err != nil {
		return Compression{}, err
	}
	inv := invariant.FromComplex(cx)
	c := Compression{
		Name:          name,
		Features:      inst.FeatureCount(),
		Points:        inst.PointCount(),
		BytesPerPoint: bytesPerPoint,
		RawBytes:      inst.RawBytes(bytesPerPoint),
		Cells:         inv.CellCount(),
		BytesPerCell:  bytesPerCell,
		InvBytes:      inv.InvariantBytes(bytesPerCell),
		AvgDegree:     cx.Stats.AvgLinesPerPoint,
		MaxDegree:     cx.Stats.MaxLinesPerPoint,
	}
	if c.InvBytes > 0 {
		c.Ratio = float64(c.RawBytes) / float64(c.InvBytes)
	}
	instBytes, err := codec.EncodeInstance(inst)
	if err != nil {
		return Compression{}, err
	}
	invBytes, err := codec.EncodeInvariant(inv)
	if err != nil {
		return Compression{}, err
	}
	c.MeasuredRawBytes = len(instBytes)
	c.MeasuredInvBytes = len(invBytes)
	if c.MeasuredInvBytes > 0 {
		c.MeasuredRatio = float64(c.MeasuredRawBytes) / float64(c.MeasuredInvBytes)
	}
	return c, nil
}

// Row renders the compression summary as one row of the table that
// cmd/experiments prints for E1–E3, under Header.
func (c Compression) Row() string {
	return fmt.Sprintf("%-14s %8d %10d %12d %8d %12d %10.1f %8.2f %4d",
		c.Name, c.Features, c.Points, c.RawBytes, c.Cells, c.InvBytes, c.Ratio, c.AvgDegree, c.MaxDegree)
}

// Header returns the table header matching Row.
func Header() string {
	return fmt.Sprintf("%-14s %8s %10s %12s %8s %12s %10s %8s %4s",
		"dataset", "features", "points", "raw bytes", "cells", "inv bytes", "raw/inv", "avg°", "max°")
}

// MeasuredRow renders the measured serialized sizes as a table row matching
// MeasuredHeader.
func (c Compression) MeasuredRow() string {
	return fmt.Sprintf("%-14s %15d %15d %10.1f",
		c.Name, c.MeasuredRawBytes, c.MeasuredInvBytes, c.MeasuredRatio)
}

// MeasuredHeader returns the table header matching MeasuredRow.
func MeasuredHeader() string {
	return fmt.Sprintf("%-14s %15s %15s %10s",
		"dataset", "raw bytes (enc)", "inv bytes (enc)", "raw/inv")
}
