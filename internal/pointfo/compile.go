// Compiled evaluation of FO(P,<x,<y) over the representative sample.
//
// Every sentence is decided on the finite cell sample: one witness per cell
// of the maximal topological decomposition, plus exterior witnesses.  The
// CompiledEvaluator works entirely on the membership matrix carried by the
// Sample: an atom is one bit test, a quantifier-free subformula with one
// free variable is a word-parallel bitset expression over the whole sample,
// and an innermost quantifier collapses to a single any-bit test.  No
// point-in-region geometry is asked once the sample exists; the tree walk
// that re-asks it per atom lives only in this package's tests, as the
// reference the compiled evaluator is checked against.
//
// A formula is compiled per call (a cheap AST walk — the expensive state,
// sample + matrix + coordinate ranks, lives in the CompiledEvaluator and is
// what engine caches per instance):
//
//  1. negation normal form: ¬ is pushed to the atoms, → becomes ¬L ∨ R, and
//     ∀x̄.φ becomes ¬∃x̄.¬φ, so every quantifier block is existential and
//     every connective is ∧/∨ — the shapes bitset algebra handles directly;
//  2. variables become integer slots numbered by binding depth, so sibling
//     quantifier blocks share slots and the 64-slot cap (free-variable sets
//     are single-word masks) limits only nesting; <x/<y atoms compare
//     precomputed coordinate ranks, which order exactly like the exact
//     rationals they replace;
//  3. each ∃ block gets a quantifier plan: conjuncts that mention no block
//     variable are hoisted out of the loops, single-variable quantifier-free
//     conjuncts are pre-folded into a static restriction column whose
//     popcount orders the block's variables most-selective-first, remaining
//     quantifier-free conjuncts are ANDed in as columns at the deepest level
//     that binds their variables, and only conjuncts with nested quantifiers
//     are evaluated per candidate.  If the innermost level has no such
//     residual conjunct the whole level is an any-bit test.
//
// A formula that is not a sentence over the sample's schema — a free
// variable, a region the schema lacks, quantifiers nested more than 64 deep
// — fails compilation with an error.  The CompiledEvaluator holds no
// *spatial.Instance at all, so evaluation structurally cannot reach
// geometry.
package pointfo

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/geom"
	"repro/internal/rat"
	"repro/internal/spatial"
)

// maxVarSlots caps the binding depth so free-variable sets fit one 64-bit
// mask.  Slots are numbered by depth, so the cap limits nesting only.
const maxVarSlots = 64

// CompiledEvaluator evaluates point-language formulas with bitset algebra
// over the sample's membership matrix.  It is immutable after construction
// and safe for concurrent use; scratch columns come from an internal pool.
type CompiledEvaluator struct {
	sample *Sample
	n      int // len(sample.Points)
	words  int
	// xRank/yRank give each sample point's position in the sorted order of
	// distinct x (resp. y) coordinates; equal coordinates share a rank, so
	// integer comparison agrees exactly with rat comparison.
	xRank, yRank []int
	pool         sync.Pool // scratch bitsets, ce.words wide
}

// CompileEvaluator builds the sample (one arrangement construction) and
// compiles it.  Prefer CompileFromSample when a Sample already exists.
func CompileEvaluator(inst *spatial.Instance) (*CompiledEvaluator, error) {
	s, err := BuildSample(inst)
	if err != nil {
		return nil, err
	}
	return CompileFromSample(s), nil
}

// CompileFromSample derives the compiled evaluator state (coordinate ranks)
// from an existing sample without touching geometry again.
func CompileFromSample(s *Sample) *CompiledEvaluator {
	n := len(s.Points)
	ce := &CompiledEvaluator{
		sample: s,
		n:      n,
		words:  bitsetWords(n),
		xRank:  coordRanks(s.Points, func(p geom.Point) rat.R { return p.X }),
		yRank:  coordRanks(s.Points, func(p geom.Point) rat.R { return p.Y }),
	}
	ce.pool.New = func() any { return make(bitset, ce.words) }
	return ce
}

// Sample returns the underlying representative sample.
func (ce *CompiledEvaluator) Sample() *Sample { return ce.sample }

// EvalSentence evaluates the sentence q on ce, exactly as ce.EvalPoint(q).
// inst is unused: the signature stays because perfbench's traced replay
// calls it.
func EvalSentence(inst *spatial.Instance, ce *CompiledEvaluator, q PointFormula) (bool, error) {
	return ce.EvalPoint(q)
}

// coordRanks maps each point to the rank of its coordinate among the
// distinct coordinate values, ties sharing a rank.
func coordRanks(pts []geom.Point, coord func(geom.Point) rat.R) []int {
	idx := make([]int, len(pts))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return coord(pts[idx[a]]).Less(coord(pts[idx[b]])) })
	ranks := make([]int, len(pts))
	r := 0
	for k, i := range idx {
		if k > 0 && coord(pts[idx[k-1]]).Less(coord(pts[i])) {
			r++
		}
		ranks[i] = r
	}
	return ranks
}

// EvalPoint compiles and evaluates the sentence f.  A formula that does not
// compile — a free variable, a region outside the sample's schema,
// quantifiers nested more than 64 deep — returns an error.
func (ce *CompiledEvaluator) EvalPoint(f PointFormula) (bool, error) {
	c := &compiler{ce: ce, scope: map[string][]int{}}
	root, err := c.compile(f, false)
	if err != nil {
		mCompileRejects.Inc()
		return false, err
	}
	binding := make([]int, c.nslots)
	for i := range binding {
		binding[i] = -1
	}
	mPlans.Add(uint64(c.plans))
	mPlanHoisted.Add(uint64(c.hoisted))
	mPlanCollapsed.Add(uint64(c.collapsed))
	mPlanReordered.Add(uint64(c.reordered))
	return ce.evalNode(root, binding), nil
}

// --- compiled form -----------------------------------------------------------

type atomKind uint8

const (
	akIn atomKind = iota
	akInterior
	akLessX
	akLessY
	akSame
)

// cnode is a formula in negation normal form over variable slots.
type cnode interface {
	// mask is the set of free variable slots as a bit mask.
	mask() uint64
}

// catom is an atom, possibly negated (NNF pushes ¬ to the leaves).  region
// indexes the membership matrix for akIn/akInterior; a and b are variable
// slots (b is unused for membership atoms).
type catom struct {
	kind   atomKind
	neg    bool
	region int
	a, b   int
	fm     uint64
}

// cbool is an n-ary conjunction (and=true) or disjunction.
type cbool struct {
	and  bool
	kids []cnode
	fm   uint64
}

// cexists is an existential block (neg=true for ¬∃, the NNF image of ∀)
// together with its quantifier plan.
type cexists struct {
	neg  bool
	plan *quantPlan
	fm   uint64
}

func (a *catom) mask() uint64   { return a.fm }
func (b *cbool) mask() uint64   { return b.fm }
func (e *cexists) mask() uint64 { return e.fm }

// quantFree reports whether the node contains no quantifier, i.e. whether
// it can be built as a bitset column once its other variables are bound.
func quantFree(n cnode) bool {
	switch g := n.(type) {
	case *catom:
		return true
	case *cbool:
		for _, k := range g.kids {
			if !quantFree(k) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// quantPlan is the compile-time evaluation order of one existential block.
type quantPlan struct {
	// ground conjuncts mention no block variable; they are evaluated once
	// before any candidate loop (hoisted out of sample^depth entirely).
	ground []cnode
	// levels, one per block variable, ordered most-selective-first.
	levels []planLevel
}

type planLevel struct {
	slot int
	// static is the AND of the binding-independent single-variable
	// quantifier-free conjuncts on this slot (nil when unrestricted); its
	// popcount decided the level order.
	static bitset
	// cols are the remaining quantifier-free conjuncts whose deepest block
	// variable is this one; each is ANDed in as a column under the current
	// binding before candidates are enumerated.
	cols []cnode
	// residual conjuncts contain nested quantifiers and must be evaluated
	// per candidate.  An innermost level with none collapses to an any-bit
	// test.
	residual []cnode
}

// --- compiler ----------------------------------------------------------------

type compiler struct {
	ce    *CompiledEvaluator
	scope map[string][]int // quantified name -> slot stack (shadowing)
	// depth is the number of variables bound around the node being
	// compiled, which is also the slot the next binding takes; nslots is
	// its maximum.
	depth, nslots int
	// planner decision tallies, flushed to metrics on success.
	plans, hoisted, collapsed, reordered int
}

func (c *compiler) slotFor(name string) (int, error) {
	if st := c.scope[name]; len(st) > 0 {
		return st[len(st)-1], nil
	}
	return 0, fmt.Errorf("pointfo: unbound point variable %q", name)
}

// compile lowers f (negated when neg is set) to negation normal form.
func (c *compiler) compile(f PointFormula, neg bool) (cnode, error) {
	switch g := f.(type) {
	case In:
		return c.memberAtom(akIn, g.Region, g.Var, neg)
	case InInterior:
		return c.memberAtom(akInterior, g.Region, g.Var, neg)
	case LessX:
		return c.orderAtom(akLessX, g.L, g.R, neg)
	case LessY:
		return c.orderAtom(akLessY, g.L, g.R, neg)
	case SamePoint:
		return c.orderAtom(akSame, g.L, g.R, neg)
	case PNot:
		return c.compile(g.F, !neg)
	case PAnd:
		return c.boolNode(g.Fs, !neg, neg) // ¬(∧) = ∨ of negations
	case POr:
		return c.boolNode(g.Fs, neg, neg)
	case PImplies:
		l, err := c.compile(g.L, !neg)
		if err != nil {
			return nil, err
		}
		r, err := c.compile(g.R, neg)
		if err != nil {
			return nil, err
		}
		// L→R is ¬L ∨ R; negated it is L ∧ ¬R.
		return &cbool{and: neg, kids: []cnode{l, r}, fm: l.mask() | r.mask()}, nil
	case PExists:
		return c.compileExists(g.Vars, g.Body, false, neg)
	case PForall:
		// ∀x̄.φ = ¬∃x̄.¬φ (and ¬∀x̄.φ = ∃x̄.¬φ).
		return c.compileExists(g.Vars, g.Body, true, !neg)
	default:
		return nil, fmt.Errorf("pointfo: unknown formula %T", f)
	}
}

func (c *compiler) memberAtom(k atomKind, region, v string, neg bool) (cnode, error) {
	r := c.ce.sample.regionIndex(region)
	if r < 0 {
		return nil, fmt.Errorf("pointfo: unknown region %q", region)
	}
	s, err := c.slotFor(v)
	if err != nil {
		return nil, err
	}
	return &catom{kind: k, neg: neg, region: r, a: s, b: -1, fm: 1 << uint(s)}, nil
}

func (c *compiler) orderAtom(k atomKind, l, r string, neg bool) (cnode, error) {
	a, err := c.slotFor(l)
	if err != nil {
		return nil, err
	}
	b, err := c.slotFor(r)
	if err != nil {
		return nil, err
	}
	return &catom{kind: k, neg: neg, region: -1, a: a, b: b, fm: 1<<uint(a) | 1<<uint(b)}, nil
}

func (c *compiler) boolNode(fs []PointFormula, and, neg bool) (cnode, error) {
	kids := make([]cnode, 0, len(fs))
	var fm uint64
	for _, f := range fs {
		k, err := c.compile(f, neg)
		if err != nil {
			return nil, err
		}
		kids = append(kids, k)
		fm |= k.mask()
	}
	return &cbool{and: and, kids: kids, fm: fm}, nil
}

// compileExists lowers a quantifier block.  bodyNeg is the negation pushed
// into the body, resultNeg whether the block value is ¬∃ (the ∀ image).
func (c *compiler) compileExists(vars []string, body PointFormula, bodyNeg, resultNeg bool) (cnode, error) {
	if len(vars) == 0 {
		// ∃∅.φ = φ; fold the outer negation into the body.
		return c.compile(body, bodyNeg != resultNeg)
	}
	if c.depth+len(vars) > maxVarSlots {
		return nil, fmt.Errorf("pointfo: quantifiers nested more than %d deep", maxVarSlots)
	}
	// Slot i is the i-th binding on the path from the root, so sibling
	// blocks reuse slots: their bindings are never live at the same time.
	slots := make([]int, len(vars))
	for i, v := range vars {
		slots[i] = c.depth + i
		c.scope[v] = append(c.scope[v], slots[i])
	}
	c.depth += len(vars)
	c.nslots = max(c.nslots, c.depth)
	b, err := c.compile(body, bodyNeg)
	c.depth -= len(vars)
	for _, v := range vars {
		st := c.scope[v]
		c.scope[v] = st[:len(st)-1]
	}
	if err != nil {
		return nil, err
	}
	fm := b.mask()
	for _, s := range slots {
		fm &^= 1 << uint(s)
	}
	return &cexists{neg: resultNeg, plan: c.buildPlan(slots, b), fm: fm}, nil
}

// buildPlan decides the evaluation order of one existential block.
func (c *compiler) buildPlan(slots []int, body cnode) *quantPlan {
	c.plans++
	var conjs []cnode
	if cb, ok := body.(*cbool); ok && cb.and {
		conjs = cb.kids
	} else {
		conjs = []cnode{body}
	}
	var blockMask uint64
	for _, s := range slots {
		blockMask |= 1 << uint(s)
	}

	n := c.ce.n
	// Fold binding-independent single-variable quantifier-free conjuncts
	// into a static restriction column per variable; its popcount is the
	// selectivity estimate that orders the block.
	static := make([]bitset, len(slots))
	used := make([]bool, len(conjs))
	for si, s := range slots {
		for ci, cj := range conjs {
			if used[ci] || cj.mask() != 1<<uint(s) || !quantFree(cj) {
				continue
			}
			if static[si] == nil {
				static[si] = newBitset(n)
				static[si].fill(n)
			}
			tmp := c.ce.scratch()
			c.ce.buildColumn(cj, s, nil, tmp)
			static[si].and(tmp)
			c.ce.release(tmp)
			used[ci] = true
		}
	}

	order := make([]int, len(slots))
	for i := range order {
		order[i] = i
	}
	count := func(i int) int {
		if static[i] == nil {
			return n
		}
		return static[i].popcount()
	}
	sort.SliceStable(order, func(a, b int) bool { return count(order[a]) < count(order[b]) })
	for i, oi := range order {
		if oi != i {
			c.reordered++
			break
		}
	}

	plan := &quantPlan{levels: make([]planLevel, len(slots))}
	for li, oi := range order {
		plan.levels[li] = planLevel{slot: slots[oi], static: static[oi]}
	}
	for ci, cj := range conjs {
		if used[ci] {
			continue
		}
		bm := cj.mask() & blockMask
		if bm == 0 {
			plan.ground = append(plan.ground, cj)
			c.hoisted++
			continue
		}
		deepest := 0
		for li := range plan.levels {
			if bm&(1<<uint(plan.levels[li].slot)) != 0 {
				deepest = li
			}
		}
		lv := &plan.levels[deepest]
		if quantFree(cj) {
			lv.cols = append(lv.cols, cj)
		} else {
			lv.residual = append(lv.residual, cj)
		}
	}
	if len(plan.levels[len(plan.levels)-1].residual) == 0 {
		c.collapsed++
	}
	return plan
}

// --- evaluation --------------------------------------------------------------

func (ce *CompiledEvaluator) scratch() bitset  { return ce.pool.Get().(bitset) }
func (ce *CompiledEvaluator) release(b bitset) { ce.pool.Put(b) }

func (ce *CompiledEvaluator) evalNode(n cnode, binding []int) bool {
	switch g := n.(type) {
	case *catom:
		return ce.evalAtom(g, binding)
	case *cbool:
		if g.and {
			for _, k := range g.kids {
				if !ce.evalNode(k, binding) {
					return false
				}
			}
			return true
		}
		for _, k := range g.kids {
			if ce.evalNode(k, binding) {
				return true
			}
		}
		return false
	case *cexists:
		return ce.evalExists(g, binding)
	default:
		panic(fmt.Sprintf("pointfo: unknown compiled node %T", n))
	}
}

func (ce *CompiledEvaluator) evalAtom(g *catom, binding []int) bool {
	var v bool
	switch g.kind {
	case akIn:
		v = ce.sample.In[g.region].has(binding[g.a])
	case akInterior:
		v = ce.sample.Interior[g.region].has(binding[g.a])
	case akLessX:
		v = ce.xRank[binding[g.a]] < ce.xRank[binding[g.b]]
	case akLessY:
		v = ce.yRank[binding[g.a]] < ce.yRank[binding[g.b]]
	case akSame:
		// The sample is deduplicated, so point equality is index equality.
		v = binding[g.a] == binding[g.b]
	}
	return v != g.neg
}

func (ce *CompiledEvaluator) evalExists(e *cexists, binding []int) bool {
	for _, g := range e.plan.ground {
		if !ce.evalNode(g, binding) {
			return e.neg // the ∃ is false
		}
	}
	return ce.evalLevels(e.plan, 0, binding) != e.neg
}

func (ce *CompiledEvaluator) evalLevels(p *quantPlan, li int, binding []int) bool {
	lv := &p.levels[li]
	col := ce.scratch()
	defer ce.release(col)
	if lv.static != nil {
		col.copyFrom(lv.static)
	} else {
		col.fill(ce.n)
	}
	if len(lv.cols) > 0 {
		tmp := ce.scratch()
		for _, cj := range lv.cols {
			ce.buildColumn(cj, lv.slot, binding, tmp)
			col.and(tmp)
			if !col.any() {
				break // no candidate can survive further ANDs
			}
		}
		ce.release(tmp)
	}
	last := li == len(p.levels)-1
	if last && len(lv.residual) == 0 {
		// Bitset collapse: the innermost level is a pure any-bit test.
		return col.any()
	}
	found := false
	col.forEach(func(i int) bool {
		binding[lv.slot] = i
		ok := true
		for _, r := range lv.residual {
			if !ce.evalNode(r, binding) {
				ok = false
				break
			}
		}
		if ok {
			if last {
				found = true
			} else {
				found = ce.evalLevels(p, li+1, binding)
			}
		}
		return !found // short-circuit on the first witness
	})
	binding[lv.slot] = -1
	return found
}

// buildColumn fills dst with the candidate set of the quantifier-free node
// along slot: bit i is set iff the node holds with slot bound to sample
// point i (all other free variables already bound in binding).
func (ce *CompiledEvaluator) buildColumn(n cnode, slot int, binding []int, dst bitset) {
	switch g := n.(type) {
	case *catom:
		ce.atomColumn(g, slot, binding, dst)
	case *cbool:
		tmp := ce.scratch()
		if g.and {
			dst.fill(ce.n)
			for _, k := range g.kids {
				ce.buildColumn(k, slot, binding, tmp)
				dst.and(tmp)
				if !dst.any() {
					break
				}
			}
		} else {
			dst.clear()
			for _, k := range g.kids {
				ce.buildColumn(k, slot, binding, tmp)
				dst.or(tmp)
			}
		}
		ce.release(tmp)
	default:
		panic(fmt.Sprintf("pointfo: non-columnar node %T in column build", n))
	}
}

func (ce *CompiledEvaluator) atomColumn(g *catom, slot int, binding []int, dst bitset) {
	switch g.kind {
	case akIn, akInterior:
		if g.a != slot {
			ce.scalarFill(ce.evalAtom(g, binding), dst)
			return
		}
		cols := ce.sample.In
		if g.kind == akInterior {
			cols = ce.sample.Interior
		}
		dst.copyFrom(cols[g.region])
		if g.neg {
			dst.not(ce.n)
		}
	case akLessX, akLessY:
		rank := ce.xRank
		if g.kind == akLessY {
			rank = ce.yRank
		}
		switch {
		case g.a == slot && g.b == slot:
			ce.scalarFill(g.neg, dst) // v < v is false
		case g.a == slot:
			rb := rank[binding[g.b]]
			dst.clear()
			for i := 0; i < ce.n; i++ {
				if rank[i] < rb {
					dst.set(i)
				}
			}
			if g.neg {
				dst.not(ce.n)
			}
		case g.b == slot:
			ra := rank[binding[g.a]]
			dst.clear()
			for i := 0; i < ce.n; i++ {
				if ra < rank[i] {
					dst.set(i)
				}
			}
			if g.neg {
				dst.not(ce.n)
			}
		default:
			ce.scalarFill(ce.evalAtom(g, binding), dst)
		}
	case akSame:
		switch {
		case g.a == slot && g.b == slot:
			ce.scalarFill(!g.neg, dst) // v = v
		case g.a == slot:
			dst.clear()
			dst.set(binding[g.b])
			if g.neg {
				dst.not(ce.n)
			}
		case g.b == slot:
			dst.clear()
			dst.set(binding[g.a])
			if g.neg {
				dst.not(ce.n)
			}
		default:
			ce.scalarFill(ce.evalAtom(g, binding), dst)
		}
	}
}

func (ce *CompiledEvaluator) scalarFill(v bool, dst bitset) {
	if v {
		dst.fill(ce.n)
	} else {
		dst.clear()
	}
}
