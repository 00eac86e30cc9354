package pointfo

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/region"
	"repro/internal/spatial"
)

func evalOn(t *testing.T, regs map[string]region.Region) *Evaluator {
	t.Helper()
	names := make([]string, 0, len(regs))
	for n := range regs {
		names = append(names, n)
	}
	inst := spatial.MustBuild(spatial.MustSchema(names...), regs)
	ev, err := NewEvaluator(inst)
	if err != nil {
		t.Fatalf("NewEvaluator: %v", err)
	}
	return ev
}

func mustPoint(t *testing.T, ev *Evaluator, f PointFormula) bool {
	t.Helper()
	r, err := ev.EvalPoint(f, nil)
	if err != nil {
		t.Fatalf("EvalPoint(%s): %v", f, err)
	}
	return r
}

func TestQueryIntersect(t *testing.T) {
	overlapping := evalOn(t, map[string]region.Region{
		"P": region.Rect(0, 0, 4, 4),
		"Q": region.Rect(2, 2, 6, 6),
	})
	disjoint := evalOn(t, map[string]region.Region{
		"P": region.Rect(0, 0, 4, 4),
		"Q": region.Rect(10, 10, 14, 14),
	})
	q := QueryIntersect("P", "Q")
	if !mustPoint(t, overlapping, q) {
		t.Error("overlapping rectangles should intersect")
	}
	if mustPoint(t, disjoint, q) {
		t.Error("disjoint rectangles should not intersect")
	}
	if QuantifierDepth(q) != 1 || Size(q) == 0 || q.String() == "" {
		t.Error("metadata of QueryIntersect wrong")
	}
}

func TestQueryContained(t *testing.T) {
	nested := evalOn(t, map[string]region.Region{
		"P": region.Rect(3, 3, 6, 6),
		"Q": region.Rect(0, 0, 10, 10),
	})
	q := QueryContained("P", "Q")
	if !mustPoint(t, nested, q) {
		t.Error("P ⊆ Q should hold for nested rectangles")
	}
	if mustPoint(t, nested, QueryContained("Q", "P")) {
		t.Error("Q ⊆ P should fail")
	}
}

func TestQueryBoundaryOnlyIntersection(t *testing.T) {
	// Two rectangles sharing exactly an edge: they intersect only on their
	// boundaries.
	touching := evalOn(t, map[string]region.Region{
		"P": region.Rect(0, 0, 2, 2),
		"Q": region.Rect(2, 0, 4, 2),
	})
	// Two rectangles with overlapping interiors.
	overlapping := evalOn(t, map[string]region.Region{
		"P": region.Rect(0, 0, 4, 4),
		"Q": region.Rect(2, 2, 6, 6),
	})
	q := QueryBoundaryOnlyIntersection("P", "Q")
	if !mustPoint(t, touching, q) {
		t.Error("edge-touching rectangles intersect only on boundaries")
	}
	if mustPoint(t, overlapping, q) {
		t.Error("overlapping rectangles do not intersect only on boundaries")
	}
	// The query is topological: it gives the same answer on a scaled and
	// reflected copy.
	touchingMoved := evalOn(t, map[string]region.Region{
		"P": region.Rect(0, 0, 2, 2).ReflectX().Translate(geom.Pt(100, 50).X, geom.Pt(100, 50).Y),
		"Q": region.Rect(2, 0, 4, 2).ReflectX().Translate(geom.Pt(100, 50).X, geom.Pt(100, 50).Y),
	})
	if !mustPoint(t, touchingMoved, q) {
		t.Error("topological query changed under a homeomorphism")
	}
}

func TestOrderAtomsAndErrors(t *testing.T) {
	ev := evalOn(t, map[string]region.Region{"P": region.Rect(0, 0, 4, 4)})
	// Order atoms under explicit assignments.
	env := map[string]geom.Point{"a": geom.Pt(0, 0), "b": geom.Pt(1, -1)}
	if r, _ := ev.EvalPoint(LessX{"a", "b"}, env); !r {
		t.Error("a <x b should hold")
	}
	if r, _ := ev.EvalPoint(LessY{"a", "b"}, env); r {
		t.Error("a <y b should fail")
	}
	if r, _ := ev.EvalPoint(SamePoint{"a", "a"}, env); !r {
		t.Error("a = a should hold")
	}
	if _, err := ev.EvalPoint(In{"NoSuch", "a"}, env); err == nil {
		t.Error("unknown region should error")
	}
	if _, err := ev.EvalPoint(In{"P", "zz"}, nil); err == nil {
		t.Error("unbound variable should error")
	}
	if ev.SampleSize() == 0 {
		t.Error("sample should be nonempty")
	}
	// There is a point of P to the left of another point of P.
	f := PExists{[]string{"a", "b"}, PAnd{[]PointFormula{In{"P", "a"}, In{"P", "b"}, LessX{"a", "b"}}}}
	if !mustPoint(t, ev, f) {
		t.Error("expected an x-ordered pair of P-points in the sample")
	}
}

func TestQuantifierDepthAndSizeVariants(t *testing.T) {
	f := PForall{[]string{"u"}, PImplies{
		POr{[]PointFormula{In{"P", "u"}, PNot{In{"Q", "u"}}}},
		PExists{[]string{"v"}, PAnd{[]PointFormula{In{"Q", "v"}, LessX{"u", "v"}}}},
	}}
	if QuantifierDepth(f) != 2 {
		t.Errorf("QuantifierDepth = %d, want 2", QuantifierDepth(f))
	}
	if Size(f) < 8 {
		t.Errorf("Size = %d, too small", Size(f))
	}
	if f.String() == "" {
		t.Error("String empty")
	}
}

func TestEmptyInstanceSample(t *testing.T) {
	inst := spatial.NewInstance(spatial.MustSchema("P"))
	ev, err := NewEvaluator(inst)
	if err != nil {
		t.Fatal(err)
	}
	if ev.SampleSize() == 0 {
		t.Error("sample should contain at least the exterior witness")
	}
	if r, _ := ev.EvalPoint(PExists{[]string{"u"}, In{"P", "u"}}, nil); r {
		t.Error("empty region should have no members")
	}
}
