package pointfo

import "repro/internal/obs"

// Planner observability: every quantifier block the compiled evaluator
// plans records its decisions here, so /metrics shows whether hoisting,
// selectivity reordering and the innermost bitset collapse are actually
// firing on production formulas.  Rejects count formulas that failed to
// compile (a free variable, an unknown region, nesting over 64 deep); the
// family keeps its old "fallbacks" name because perfbench's traced replay
// compares it with the server's.
var (
	mPlans = obs.Default.Counter(
		"topoinv_pointfo_quantifier_plans_total",
		"Existential blocks planned by the compiled evaluator.")
	mPlanHoisted = obs.Default.Counter(
		"topoinv_pointfo_plan_hoisted_conjuncts_total",
		"Conjuncts hoisted out of quantifier loops because they mention no block variable.")
	mPlanCollapsed = obs.Default.Counter(
		"topoinv_pointfo_plan_bitset_collapses_total",
		"Quantifier blocks whose innermost level reduced to a single any-bit test.")
	mPlanReordered = obs.Default.Counter(
		"topoinv_pointfo_plan_reordered_blocks_total",
		"Quantifier blocks whose variable order was changed by selectivity estimates.")
	mCompileRejects = obs.Default.Counter(
		"topoinv_pointfo_compile_fallbacks_total",
		"Evaluations rejected by the formula compiler: a free variable, an unknown region or quantifiers nested more than 64 deep.")
)
