// Package pointfo implements the point-based spatial query language of the
// paper, FO(P,<x,<y), whose variables range over points of the plane.
//
// By [PSV99] it expresses exactly the topological properties of FO(R,<) —
// first-order logic over the reals with order and the region predicates
// viewed as binary relations — and the paper's translations take the
// topological fragment FOtop as input.  A sentence is evaluated by letting
// its quantifiers range over a finite set of representative points, one per
// cell of the maximum topological cell decomposition of the instance (vertex
// points, edge midpoints, face representatives, plus points beyond the
// bounding box for the exterior).
// For topological sentences — whose truth only depends on which cells of the
// decomposition are populated by witnesses, not on metric or coordinate-order
// relationships between distinct witnesses — this evaluation is exact; this
// is the fragment all examples, experiments and translations in this
// repository use.  For non-topological sentences the evaluator computes the
// sentence's value on the representative sample, which corresponds to the
// topological-closure semantics discussed in Remark 4.3 of the paper.
package pointfo

import (
	"fmt"
	"strings"

	"repro/internal/arrangement"
	"repro/internal/geom"
	"repro/internal/spatial"
)

// PointFormula is a formula of FO(P, <x, <y).  Variables denote points.
type PointFormula interface {
	isPointFormula()
	String() string
}

// In asserts that the point variable belongs to the named region.
type In struct {
	Region string
	Var    string
}

// LessX asserts that the x-coordinate of L is smaller than that of R.
type LessX struct{ L, R string }

// LessY asserts that the y-coordinate of L is smaller than that of R.
type LessY struct{ L, R string }

// SamePoint asserts that two point variables denote the same point.
type SamePoint struct{ L, R string }

// PNot, PAnd, POr, PImplies are the Boolean connectives.
type PNot struct{ F PointFormula }

// PAnd is conjunction.
type PAnd struct{ Fs []PointFormula }

// POr is disjunction.
type POr struct{ Fs []PointFormula }

// PImplies is implication.
type PImplies struct{ L, R PointFormula }

// PExists existentially quantifies point variables.
type PExists struct {
	Vars []string
	Body PointFormula
}

// PForall universally quantifies point variables.
type PForall struct {
	Vars []string
	Body PointFormula
}

func (In) isPointFormula()        {}
func (LessX) isPointFormula()     {}
func (LessY) isPointFormula()     {}
func (SamePoint) isPointFormula() {}
func (PNot) isPointFormula()      {}
func (PAnd) isPointFormula()      {}
func (POr) isPointFormula()       {}
func (PImplies) isPointFormula()  {}
func (PExists) isPointFormula()   {}
func (PForall) isPointFormula()   {}

func (f In) String() string        { return fmt.Sprintf("%s(%s)", f.Region, f.Var) }
func (f LessX) String() string     { return fmt.Sprintf("%s <x %s", f.L, f.R) }
func (f LessY) String() string     { return fmt.Sprintf("%s <y %s", f.L, f.R) }
func (f SamePoint) String() string { return fmt.Sprintf("%s = %s", f.L, f.R) }
func (f PNot) String() string      { return "¬(" + f.F.String() + ")" }
func (f PAnd) String() string      { return joinPoint(f.Fs, " ∧ ") }
func (f POr) String() string       { return joinPoint(f.Fs, " ∨ ") }
func (f PImplies) String() string  { return "(" + f.L.String() + " → " + f.R.String() + ")" }
func (f PExists) String() string   { return "∃" + strings.Join(f.Vars, ",") + "." + f.Body.String() }
func (f PForall) String() string   { return "∀" + strings.Join(f.Vars, ",") + "." + f.Body.String() }

func joinPoint(fs []PointFormula, sep string) string {
	if len(fs) == 0 {
		return "⊤"
	}
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = f.String()
	}
	return "(" + strings.Join(parts, sep) + ")"
}

// QuantifierDepth returns the quantifier depth (number of nested quantified
// variables) of the formula.
func QuantifierDepth(f PointFormula) int {
	switch g := f.(type) {
	case In, InInterior, LessX, LessY, SamePoint:
		return 0
	case PNot:
		return QuantifierDepth(g.F)
	case PAnd:
		m := 0
		for _, s := range g.Fs {
			if d := QuantifierDepth(s); d > m {
				m = d
			}
		}
		return m
	case POr:
		m := 0
		for _, s := range g.Fs {
			if d := QuantifierDepth(s); d > m {
				m = d
			}
		}
		return m
	case PImplies:
		l, r := QuantifierDepth(g.L), QuantifierDepth(g.R)
		if l > r {
			return l
		}
		return r
	case PExists:
		return len(g.Vars) + QuantifierDepth(g.Body)
	case PForall:
		return len(g.Vars) + QuantifierDepth(g.Body)
	default:
		panic(fmt.Sprintf("pointfo: unknown formula %T", f))
	}
}

// Size returns the number of AST nodes.
func Size(f PointFormula) int {
	switch g := f.(type) {
	case In, InInterior, LessX, LessY, SamePoint:
		return 1
	case PNot:
		return 1 + Size(g.F)
	case PAnd:
		n := 1
		for _, s := range g.Fs {
			n += Size(s)
		}
		return n
	case POr:
		n := 1
		for _, s := range g.Fs {
			n += Size(s)
		}
		return n
	case PImplies:
		return 1 + Size(g.L) + Size(g.R)
	case PExists:
		return 1 + len(g.Vars) + Size(g.Body)
	case PForall:
		return 1 + len(g.Vars) + Size(g.Body)
	default:
		panic(fmt.Sprintf("pointfo: unknown formula %T", f))
	}
}

// --- evaluation --------------------------------------------------------------

// Sample is the finite set of representative points used to evaluate
// quantifiers: one witness per cell of the maximum topological cell
// decomposition plus exterior witnesses.
//
// Alongside the points it carries the membership matrix: one closed-region
// and one interior column per region, read straight off each point's cell
// sign class during sampling.  Every sample point is a cell representative,
// and a cell lies inside a single sign class, so the bits answer In /
// InInterior atoms exactly — no point-in-region geometry is ever consulted
// again once the sample exists.
type Sample struct {
	Points []geom.Point
	// Regions lists the instance's region names in sorted order; it indexes
	// the matrix columns below.
	Regions []string
	// In[r] has bit i set iff Points[i] belongs to the closed region
	// Regions[r] (cell sign Interior or Boundary).
	In []bitset
	// Interior[r] has bit i set iff Points[i] lies in the topological
	// interior of Regions[r] (cell sign Interior).
	Interior []bitset
}

// BuildSample computes the representative sample of the instance.
func BuildSample(inst *spatial.Instance) (*Sample, error) {
	cx, err := arrangement.Build(inst)
	if err != nil {
		return nil, err
	}
	return SampleFromComplex(cx), nil
}

// SampleFromComplex derives the representative sample — points and
// membership matrix — from an existing cell complex.
func SampleFromComplex(cx *arrangement.Complex) *Sample {
	s := &Sample{}
	if cx.Schema != nil {
		s.Regions = cx.SortedRegionNames()
	}
	// Signs are collected per point first (cell count is only known after
	// dedup), then packed into columns.
	var signs []map[string]arrangement.Sign
	seen := map[string]bool{}
	add := func(p geom.Point, sign map[string]arrangement.Sign) {
		if !seen[p.Key()] {
			seen[p.Key()] = true
			s.Points = append(s.Points, p)
			signs = append(signs, sign)
		}
	}
	for _, v := range cx.Vertices {
		add(v.Point, v.Sign)
	}
	for _, e := range cx.Edges {
		add(e.Midpoint(), e.Sign)
	}
	for _, f := range cx.Faces {
		add(f.Rep, f.Sign)
	}
	if len(s.Points) == 0 {
		// Degenerate all-empty instance: one exterior witness, member of
		// nothing (the nil sign map below reads as Exterior everywhere).
		add(geom.Pt(0, 0), nil)
	}
	n := len(s.Points)
	s.In = make([]bitset, len(s.Regions))
	s.Interior = make([]bitset, len(s.Regions))
	for r, name := range s.Regions {
		in, interior := newBitset(n), newBitset(n)
		for i, sign := range signs {
			switch sign[name] {
			case arrangement.Interior:
				in.set(i)
				interior.set(i)
			case arrangement.Boundary:
				in.set(i)
			}
		}
		s.In[r], s.Interior[r] = in, interior
	}
	return s
}

// regionIndex returns the matrix column of the named region, or -1.
func (s *Sample) regionIndex(name string) int {
	for i, r := range s.Regions {
		if r == name {
			return i
		}
	}
	return -1
}

// --- canonical example queries -----------------------------------------------

// QueryIntersect states that regions p and q share a point.
func QueryIntersect(p, q string) PointFormula {
	return PExists{[]string{"u"}, PAnd{[]PointFormula{In{p, "u"}, In{q, "u"}}}}
}

// QueryContained states that region p is contained in region q.
func QueryContained(p, q string) PointFormula {
	return PForall{[]string{"u"}, PImplies{In{p, "u"}, In{q, "u"}}}
}

// QueryBoundaryOnlyIntersection is the paper's running example: regions p and
// q intersect only on their boundaries.  A point is on the boundary of a
// region exactly when it belongs to the region while arbitrarily close points
// do not; over the representative sample this is expressed through the
// topological characterisation "u is in p but not in p's interior", which the
// evaluator decides cell-wise.
func QueryBoundaryOnlyIntersection(p, q string) PointFormula {
	return PForall{[]string{"u"}, PImplies{
		PAnd{[]PointFormula{In{p, "u"}, In{q, "u"}}},
		PAnd{[]PointFormula{boundaryOf(p, "u"), boundaryOf(q, "u")}},
	}}
}

// boundaryOf states u ∈ ∂p as u ∈ p ∧ ¬interior_p(u).
func boundaryOf(p, u string) PointFormula {
	return PAnd{[]PointFormula{In{p, u}, PNot{InInterior{p, u}}}}
}

// InInterior asserts that the point variable lies in the topological interior
// of the named region.  It is definable in FO(P,<x,<y) (see the paper's
// running example), and the evaluator resolves it exactly through the
// membership matrix's interior column; it is provided as a primitive so that
// topological queries can be written directly against cell semantics.
type InInterior struct {
	Region string
	Var    string
}

func (InInterior) isPointFormula() {}

func (f InInterior) String() string { return fmt.Sprintf("interior_%s(%s)", f.Region, f.Var) }
