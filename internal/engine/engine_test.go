package engine

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/lru"
	"repro/internal/pointfo"
	"repro/internal/spatial"
	"repro/internal/workload"
)

func nested(t testing.TB, levels int) *spatial.Instance {
	t.Helper()
	inst, err := workload.NestedRegions(levels)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func nonEmpty(name string) pointfo.PointFormula {
	return pointfo.PExists{Vars: []string{"u"}, Body: pointfo.In{Region: name, Var: "u"}}
}

// TestKeyMemoUsesEnforcedCapacity: the pointer→key memo is bounded by the
// invariant cache's enforced capacity, so a requested capacity below 1
// (treated as 1) still memoizes a second instance instead of emptying the
// memo before every insert.
func TestKeyMemoUsesEnforcedCapacity(t *testing.T) {
	a, b := nested(t, 2), nested(t, 3)
	for _, capacity := range []int{-3, 0, 1} {
		e := New(WithCacheCapacity(capacity))
		for _, inst := range []*spatial.Instance{a, b} {
			if _, err := e.key(inst); err != nil {
				t.Fatal(err)
			}
		}
		if n := len(e.keyMemo); n != 2 {
			t.Errorf("capacity %d: %d of 2 keys memoized, want 2", capacity, n)
		}
	}
}

func TestInvariantCacheHit(t *testing.T) {
	e := New()
	inst := nested(t, 3)

	a, err := e.Invariant(inst)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Invariant(inst)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second Invariant call did not return the cached invariant")
	}

	// CachedInvariant peeks without counting.
	if c, ok := e.CachedInvariant(inst); !ok || c != a {
		t.Error("CachedInvariant missed the cached invariant")
	}
	st := e.Stats()
	if st.CacheMisses != 1 || st.CacheHits != 1 {
		t.Errorf("stats: %d misses, %d hits; want 1, 1", st.CacheMisses, st.CacheHits)
	}
	if st.CacheSize != 1 {
		t.Errorf("cache size %d, want 1", st.CacheSize)
	}
}

// TestContentAddressing verifies that two structurally identical instances
// built independently share one cache entry.
func TestContentAddressing(t *testing.T) {
	e := New()
	a, err := e.Invariant(nested(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Invariant(nested(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("identical content did not share a cache entry")
	}
	if st := e.Stats(); st.CacheSize != 1 {
		t.Errorf("cache size %d, want 1", st.CacheSize)
	}
}

// holdBuild starts a build of v under key that stays in flight until the
// returned release is called; release returns once the build has finished.
func holdBuild[V any](c *lru.Sharded[V], key string, v V) (release func()) {
	started, unblock, finished := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(finished)
		c.GetOrBuild(key, func() (V, error) {
			close(started)
			<-unblock
			return v, nil
		})
	}()
	<-started
	return func() { close(unblock); <-finished }
}

// waitUntil polls cond until it holds, failing the test after 10s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// TestSingleflightDedup parks an invariant fetch behind an in-flight build
// of the same content and checks it receives that build's result, counted
// as one dedup and no compute.
func TestSingleflightDedup(t *testing.T) {
	e := New()
	inst := nested(t, 2)
	key, err := InstanceKey(inst)
	if err != nil {
		t.Fatal(err)
	}
	want, err := invariant.Compute(inst)
	if err != nil {
		t.Fatal(err)
	}
	release := holdBuild(e.invariants, key, want)

	got := make(chan error, 1)
	go func() {
		inv, _, err := e.invariant(inst)
		if err == nil && inv != want {
			t.Error("waiter did not receive the in-flight result")
		}
		got <- err
	}()
	waitUntil(t, "the fetch to join the in-flight build", func() bool { return e.Stats().CacheDedups == 1 })
	select {
	case <-got:
		t.Fatal("waiter returned before the in-flight build completed")
	default:
	}
	release()
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.CacheDedups != 1 || st.Computes != 0 {
		t.Errorf("dedups %d, computes %d; want 1, 0", st.CacheDedups, st.Computes)
	}
}

// TestLRUEviction pins capacity to one entry per shard and inserts two
// instances whose content keys collide on a shard (keys route by their
// leading hex digit): the second insert must evict the first, and only the
// first.
func TestLRUEviction(t *testing.T) {
	e := New(WithCacheCapacity(lru.MaxShards)) // one entry per shard
	byShard := make(map[byte][]*spatial.Instance)
	var colliding []*spatial.Instance
	for levels := 2; levels < 40 && colliding == nil; levels++ {
		inst := nested(t, levels)
		key, err := InstanceKey(inst)
		if err != nil {
			t.Fatal(err)
		}
		byShard[key[0]] = append(byShard[key[0]], inst)
		if len(byShard[key[0]]) == 2 {
			colliding = byShard[key[0]]
		}
	}
	if colliding == nil {
		t.Fatal("no shard collision among 38 instances (astronomically unlikely)")
	}
	first, second := colliding[0], colliding[1]
	if _, err := e.Invariant(first); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Invariant(second); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.CacheSize != 1 {
		t.Errorf("cache size %d, want 1", st.CacheSize)
	}
	if st.CacheEvictions != 1 {
		t.Errorf("evictions %d, want 1", st.CacheEvictions)
	}
	if _, ok := e.CachedInvariant(first); ok {
		t.Error("least-recently-used entry was not the one evicted")
	}
	if _, ok := e.CachedInvariant(second); !ok {
		t.Error("most-recent entry was evicted")
	}
}

func TestAskMatchesCore(t *testing.T) {
	e := New()
	inst := nested(t, 3)
	queries := []pointfo.PointFormula{
		nonEmpty("P"),
		pointfo.QueryIntersect("P", "P"),
	}
	for _, s := range []core.Strategy{core.Direct, core.ViaInvariantFO, core.ViaInvariantFixpoint, core.ViaLinearized} {
		for _, q := range queries {
			db, err := core.Open(inst)
			if err != nil {
				t.Fatal(err)
			}
			want, wantErr := db.Ask(q, s)
			got, gotErr := e.Ask(inst, q, s)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("strategy %v query %v: error mismatch %v vs %v", s, q, wantErr, gotErr)
			}
			if want != got {
				t.Errorf("strategy %v query %v: engine answered %v, core answered %v", s, q, got, want)
			}
		}
	}
}

func TestBatchOrderAndConcurrency(t *testing.T) {
	e := New(WithWorkers(4))
	instances := []*spatial.Instance{nested(t, 2), nested(t, 3), nested(t, 4)}
	var reqs []Request
	for i := 0; i < 24; i++ {
		reqs = append(reqs, Request{Instance: instances[i%len(instances)], Query: nonEmpty("P")})
	}
	results := e.Batch(reqs, core.ViaInvariantFixpoint)
	if len(results) != len(reqs) {
		t.Fatalf("%d results for %d requests", len(results), len(reqs))
	}
	for i, r := range results {
		if r.Index != i {
			t.Errorf("result %d carries index %d", i, r.Index)
		}
		if r.Err != nil {
			t.Errorf("request %d: %v", i, r.Err)
		}
		if !r.Answer {
			t.Errorf("request %d: NestedRegions P should be non-empty", i)
		}
		if r.Latency <= 0 {
			t.Errorf("request %d: non-positive latency", i)
		}
	}
	st := e.Stats()
	if st.CacheSize != len(instances) {
		t.Errorf("cache size %d, want %d", st.CacheSize, len(instances))
	}
	// Every request consulted the answer cache; only the answer misses went
	// on to the invariant cache (one lookup each).
	if st.AnswerHits+st.AnswerMisses != uint64(len(reqs)) {
		t.Errorf("answer hits+misses = %d, want %d", st.AnswerHits+st.AnswerMisses, len(reqs))
	}
	if st.AnswerMisses == uint64(len(reqs)) {
		t.Error("no request was served from the answer cache")
	}
	if st.CacheHits+st.CacheMisses != st.AnswerMisses {
		t.Errorf("invariant lookups = %d, want one per answer miss (%d)",
			st.CacheHits+st.CacheMisses, st.AnswerMisses)
	}
}

func TestBatchEmpty(t *testing.T) {
	if res := New().Batch(nil, core.Direct); len(res) != 0 {
		t.Fatalf("want empty result set, got %d", len(res))
	}
}

// TestDirectStrategySkipsCache checks that Direct evaluation neither reads
// nor populates the invariant cache.
func TestDirectStrategySkipsCache(t *testing.T) {
	e := New()
	if _, err := e.Ask(nested(t, 3), nonEmpty("P"), core.Direct); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.CacheHits != 0 || st.CacheMisses != 0 || st.CacheSize != 0 {
		t.Errorf("Direct strategy touched the cache: %+v", st)
	}
	if len(st.Strategies) != 1 || st.Strategies[0].Queries != 1 {
		t.Errorf("strategy counters not recorded: %+v", st.Strategies)
	}
}

// TestEvaluationPanicBecomesError checks that a query referencing an unknown
// region surfaces as a per-request error — the compiler rejects it — while
// the Batch worker goes on to answer the valid request beside it.
func TestEvaluationPanicBecomesError(t *testing.T) {
	e := New()
	inst := nested(t, 2)
	results := e.Batch([]Request{
		{Instance: inst, Query: nonEmpty("NoSuchRegion")},
		{Instance: inst, Query: nonEmpty("P")},
	}, core.Direct)
	if results[0].Err == nil {
		t.Error("unknown region: want an error result")
	}
	if results[1].Err != nil || !results[1].Answer {
		t.Errorf("valid request alongside a panicking one: %+v", results[1])
	}
	if _, err := e.Ask(inst, nonEmpty("NoSuchRegion"), core.ViaInvariantFixpoint); err == nil {
		t.Error("Ask with unknown region: want an error")
	}
}

// TestConcurrentInvariant hammers one engine from many goroutines; run with
// -race this doubles as the engine's data-race test.
func TestConcurrentInvariant(t *testing.T) {
	e := New(WithCacheCapacity(2))
	instances := []*spatial.Instance{nested(t, 2), nested(t, 3), nested(t, 4)}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				inst := instances[(g+i)%len(instances)]
				if _, err := e.Invariant(inst); err != nil {
					t.Error(err)
					return
				}
				if _, err := e.Ask(inst, nonEmpty("P"), core.ViaInvariantFixpoint); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// The per-shard bound itself is internal/lru's TestShardBound.
	if st := e.Stats(); st.CacheSize > st.CacheCapacity {
		t.Errorf("cache exceeded its bound: size %d, capacity %d", st.CacheSize, st.CacheCapacity)
	}
}

// TestSmallCapacityIsExact: a capacity below the shard count must bound the
// cache exactly — not inflate to one entry per shard.
func TestSmallCapacityIsExact(t *testing.T) {
	e := New(WithCacheCapacity(1))
	if st := e.Stats(); st.CacheCapacity != 1 || st.CacheShards != 1 {
		t.Fatalf("capacity/shards = %d/%d, want 1/1", st.CacheCapacity, st.CacheShards)
	}
	for levels := 2; levels <= 5; levels++ {
		if _, err := e.Invariant(nested(t, levels)); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.CacheSize != 1 {
		t.Errorf("cache size %d with capacity 1, want exactly 1", st.CacheSize)
	}
	if st.CacheEvictions != 3 {
		t.Errorf("evictions %d, want 3", st.CacheEvictions)
	}
}

// TestAutoStrategyFallbackCounters: Auto queries resolve per instance and
// the engine records the resolution — the evaluations land on the concrete
// strategies' counters, and the auto_queries/auto_fallbacks pair shows how
// often the direct fallback absorbed a non-invertible invariant.
func TestAutoStrategyFallbackCounters(t *testing.T) {
	e := New()
	invertible := nested(t, 2) // free loops + isolated vertex: fixpoint-eligible
	junctions, err := workload.LandUse(workload.DefaultLandUse(1))
	if err != nil {
		t.Fatal(err)
	}

	res := e.AskResult(invertible, nonEmpty("P"), core.Auto)
	if res.Err != nil {
		t.Fatalf("auto on invertible instance: %v", res.Err)
	}
	if res.Strategy != core.ViaInvariantFixpoint {
		t.Errorf("auto resolved to %v, want via-invariant-fixpoint", res.Strategy)
	}

	res = e.AskResult(junctions, nonEmpty("class00"), core.Auto)
	if res.Err != nil {
		t.Fatalf("auto on junction-vertex instance: %v", res.Err)
	}
	if res.Strategy != core.Direct {
		t.Errorf("auto resolved to %v, want direct fallback", res.Strategy)
	}
	// The fallback still consulted the invariant cache, so a repeat is a
	// cache hit on the invariant inspection.
	if res = e.AskResult(junctions, nonEmpty("class00"), core.Auto); !res.CacheHit {
		t.Error("second auto query did not hit the invariant cache")
	}

	st := e.Stats()
	if st.AutoQueries != 3 {
		t.Errorf("auto_queries = %d, want 3", st.AutoQueries)
	}
	if st.AutoFallbacks != 2 {
		t.Errorf("auto_fallbacks = %d, want 2", st.AutoFallbacks)
	}
	perStrategy := map[string]uint64{}
	for _, s := range st.Strategies {
		perStrategy[s.Strategy] = s.Queries
	}
	if perStrategy["via-invariant-fixpoint"] != 1 {
		t.Errorf("fixpoint queries = %d, want 1 (the resolved auto query)", perStrategy["via-invariant-fixpoint"])
	}
	if perStrategy["direct"] != 2 {
		t.Errorf("direct queries = %d, want 2 (the recorded fallbacks)", perStrategy["direct"])
	}
	for _, s := range st.Strategies {
		if s.Errors != 0 {
			t.Errorf("strategy %s recorded %d errors, want 0", s.Strategy, s.Errors)
		}
	}

	// Batch accepts Auto too, resolving per request.
	results := e.Batch([]Request{
		{Instance: invertible, Query: nonEmpty("P")},
		{Instance: junctions, Query: nonEmpty("class00")},
	}, core.Auto)
	for i, r := range results {
		if r.Err != nil {
			t.Errorf("batch auto request %d: %v", i, r.Err)
		}
	}
	if results[0].Strategy != core.ViaInvariantFixpoint || results[1].Strategy != core.Direct {
		t.Errorf("batch auto resolutions = %v/%v, want fixpoint/direct", results[0].Strategy, results[1].Strategy)
	}
	if st = e.Stats(); st.AutoQueries != 5 || st.AutoFallbacks != 3 {
		t.Errorf("after batch: auto_queries = %d, auto_fallbacks = %d, want 5/3", st.AutoQueries, st.AutoFallbacks)
	}
}

// TestAnswerCache: a repeated identical ask is served from the answer cache
// without touching the invariant cache; syntactic variants of the same
// canonical query share one entry; different strategies and different
// queries do not.
func TestAnswerCache(t *testing.T) {
	e := New()
	inst := nested(t, 3)

	first := e.AskResult(inst, nonEmpty("P"), core.ViaInvariantFixpoint)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	if first.AnswerHit {
		t.Error("first ask reported an answer hit")
	}
	if first.Canonical != "exists u . in(P, u)" {
		t.Errorf("canonical = %q", first.Canonical)
	}

	st := e.Stats()
	invLookups := st.CacheHits + st.CacheMisses

	second := e.AskResult(inst, nonEmpty("P"), core.ViaInvariantFixpoint)
	if second.Err != nil {
		t.Fatal(second.Err)
	}
	if !second.AnswerHit || second.Answer != first.Answer {
		t.Errorf("second ask: %+v, want an answer hit with the same answer", second)
	}
	if second.CacheHit {
		t.Error("answer hit still consulted the invariant cache")
	}
	st = e.Stats()
	if st.CacheHits+st.CacheMisses != invLookups {
		t.Error("answer hit performed an invariant lookup")
	}
	if st.AnswerHits != 1 || st.AnswerMisses != 1 {
		t.Errorf("answer hits/misses = %d/%d, want 1/1", st.AnswerHits, st.AnswerMisses)
	}
	if st.AnswerSize != 1 {
		t.Errorf("answer size = %d, want 1", st.AnswerSize)
	}

	// A structurally equal formula built independently shares the entry.
	variant := pointfo.PExists{Vars: []string{"u"}, Body: pointfo.In{Region: "P", Var: "u"}}
	if res := e.AskResult(inst, variant, core.ViaInvariantFixpoint); !res.AnswerHit {
		t.Error("structurally equal query missed the answer cache")
	}
	// A different strategy is a different key.
	if res := e.AskResult(inst, nonEmpty("P"), core.Direct); res.AnswerHit {
		t.Error("different strategy hit the other strategy's answer")
	}
	// A different query is a different key.
	hasInterior := pointfo.PExists{Vars: []string{"u"}, Body: pointfo.InInterior{Region: "P", Var: "u"}}
	if res := e.AskResult(inst, hasInterior, core.ViaInvariantFixpoint); res.AnswerHit {
		t.Error("different query hit the answer cache")
	}
}

// TestAnswerCacheAuto: Auto asks resolve to a concrete strategy and share
// answer entries with direct asks of that strategy; errors are never cached.
func TestAnswerCacheAuto(t *testing.T) {
	e := New()
	inst := nested(t, 2)

	// Warm via an explicit fixpoint ask…
	if res := e.AskResult(inst, nonEmpty("P"), core.ViaInvariantFixpoint); res.Err != nil {
		t.Fatal(res.Err)
	}
	// …then an Auto ask resolves to fixpoint and hits the same entry.
	res := e.AskResult(inst, nonEmpty("P"), core.Auto)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Strategy != core.ViaInvariantFixpoint || !res.AnswerHit {
		t.Errorf("auto ask: strategy %v answerHit %v, want fixpoint hit", res.Strategy, res.AnswerHit)
	}

	// Errors are not cached: the same failing ask fails twice, with no entry.
	before := e.Stats().AnswerSize
	for i := 0; i < 2; i++ {
		if _, err := e.Ask(inst, nonEmpty("NoSuchRegion"), core.Direct); err == nil {
			t.Fatal("unknown region: want an error")
		}
	}
	if after := e.Stats().AnswerSize; after != before {
		t.Errorf("error result was cached: size %d → %d", before, after)
	}
}

// TestAnswerCacheEviction: the LRU bound holds for the answer cache.
func TestAnswerCacheEviction(t *testing.T) {
	e := New(WithAnswerCapacity(1))
	if st := e.Stats(); st.AnswerCapacity != 1 {
		t.Fatalf("answer capacity = %d, want 1", st.AnswerCapacity)
	}
	inst := nested(t, 2)
	hasInterior := pointfo.PExists{Vars: []string{"u"}, Body: pointfo.InInterior{Region: "P", Var: "u"}}
	if _, err := e.Ask(inst, nonEmpty("P"), core.Direct); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ask(inst, hasInterior, core.Direct); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.AnswerSize != 1 {
		t.Errorf("answer size = %d with capacity 1", st.AnswerSize)
	}
	// The first entry was evicted: asking it again is a miss, and the second
	// (now evicted in turn) would miss as well.
	if res := e.AskResult(inst, nonEmpty("P"), core.Direct); res.AnswerHit {
		t.Error("evicted entry still hit")
	}
}

// TestBatchPerRequestStrategy: StrategySet overrides the batch default.
func TestBatchPerRequestStrategy(t *testing.T) {
	e := New()
	inst := nested(t, 2)
	results := e.Batch([]Request{
		{Instance: inst, Query: nonEmpty("P")},
		{Instance: inst, Query: nonEmpty("P"), Strategy: core.Direct, StrategySet: true},
		{Instance: inst, Query: nonEmpty("P"), Strategy: core.ViaLinearized, StrategySet: true},
	}, core.ViaInvariantFixpoint)
	want := []core.Strategy{core.ViaInvariantFixpoint, core.Direct, core.ViaLinearized}
	for i, r := range results {
		if r.Err != nil {
			t.Errorf("request %d: %v", i, r.Err)
		}
		if r.Strategy != want[i] {
			t.Errorf("request %d ran %v, want %v", i, r.Strategy, want[i])
		}
	}
}

// TestBatchStreamDeliversAll: the streaming API yields every result exactly
// once, as identified by Index.
func TestBatchStreamDeliversAll(t *testing.T) {
	e := New(WithWorkers(4))
	inst := nested(t, 2)
	var reqs []Request
	for i := 0; i < 16; i++ {
		reqs = append(reqs, Request{Instance: inst, Query: nonEmpty("P")})
	}
	seen := make([]bool, len(reqs))
	n := 0
	for res := range e.BatchStream(reqs, core.ViaInvariantFixpoint) {
		if res.Index < 0 || res.Index >= len(reqs) || seen[res.Index] {
			t.Fatalf("bad or duplicate index %d", res.Index)
		}
		seen[res.Index] = true
		n++
		if res.Err != nil {
			t.Errorf("request %d: %v", res.Index, res.Err)
		}
	}
	if n != len(reqs) {
		t.Errorf("received %d results, want %d", n, len(reqs))
	}
}
