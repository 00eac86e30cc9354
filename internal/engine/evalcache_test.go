package engine

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/pointfo"
)

func TestEvaluatorCacheHit(t *testing.T) {
	e := New()
	inst := nested(t, 3)

	a, err := e.CompiledEvaluator(inst)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.CompiledEvaluator(inst)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second CompiledEvaluator call did not return the cached evaluator")
	}
	st := e.Stats()
	if st.EvalMisses != 1 || st.EvalHits != 1 {
		t.Errorf("stats: %d misses, %d hits; want 1, 1", st.EvalMisses, st.EvalHits)
	}
	if st.EvalSize != 1 {
		t.Errorf("evaluator cache size %d, want 1", st.EvalSize)
	}
}

// TestAskUsesEvaluatorCache drives distinct queries (defeating the answer
// cache) against one instance and checks the second ask reuses the cached
// compiled evaluator instead of rebuilding the sample.
func TestAskUsesEvaluatorCache(t *testing.T) {
	e := New()
	inst := nested(t, 3)
	if _, err := e.Ask(inst, nonEmpty("P"), core.Direct); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ask(inst, pointfo.QueryContained("P", "P"), core.Direct); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.EvalMisses != 1 {
		t.Errorf("eval misses = %d, want 1 (one build per instance content)", st.EvalMisses)
	}
	if st.EvalHits == 0 {
		t.Error("second ask should hit the evaluator cache")
	}
}

func TestEvaluatorCacheEviction(t *testing.T) {
	e := New(WithEvaluatorCapacity(1))
	if _, err := e.CompiledEvaluator(nested(t, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CompiledEvaluator(nested(t, 3)); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.EvalCapacity != 1 {
		t.Errorf("eval capacity = %d, want 1", st.EvalCapacity)
	}
	if st.EvalEvictions != 1 {
		t.Errorf("eval evictions = %d, want 1", st.EvalEvictions)
	}
	if st.EvalSize != 1 {
		t.Errorf("eval size = %d, want 1", st.EvalSize)
	}
}

// TestEvaluatorSingleflight parks a CompiledEvaluator call behind an
// in-flight build of the same content and checks it receives that build's
// result, counted as one dedup.
func TestEvaluatorSingleflight(t *testing.T) {
	e := New()
	inst := nested(t, 2)
	key, err := InstanceKey(inst)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pointfo.CompileEvaluator(inst)
	if err != nil {
		t.Fatal(err)
	}
	release := holdBuild(e.evaluators, key, want)

	got := make(chan error, 1)
	go func() {
		ce, err := e.CompiledEvaluator(inst)
		if err == nil && ce != want {
			t.Error("waiter did not receive the in-flight result")
		}
		got <- err
	}()
	waitUntil(t, "the call to join the in-flight build", func() bool { return e.Stats().EvalDedups == 1 })
	select {
	case <-got:
		t.Fatal("waiter returned before the in-flight build completed")
	default:
	}
	release()
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.EvalDedups != 1 {
		t.Errorf("eval dedups %d, want 1", st.EvalDedups)
	}
}

// TestEvaluatorCacheConcurrent exercises the sharded cache under concurrent
// Direct asks across several instances.
func TestEvaluatorCacheConcurrent(t *testing.T) {
	e := New()
	insts := []int{2, 3, 4}
	var wg sync.WaitGroup
	errs := make(chan error, 24)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, lv := range insts {
				if _, err := e.Ask(nested(t, lv), nonEmpty("P"), core.Direct); err != nil {
					errs <- err
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.EvalSize != len(insts) {
		t.Errorf("eval size = %d, want %d (one evaluator per content)", st.EvalSize, len(insts))
	}
}
