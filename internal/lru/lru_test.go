package lru

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func newCounters() Counters {
	r := obs.NewRegistry()
	return Counters{
		Hits:      r.Counter("hits_total", "h"),
		Misses:    r.Counter("misses_total", "m"),
		Dedups:    r.Counter("dedups_total", "d"),
		Evictions: r.Counter("evictions_total", "e"),
	}
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

// TestSizing pins the routing and sizing rule: capacities up to MaxShards
// are exact (one entry per shard), larger ones round up to a multiple of
// MaxShards.
func TestSizing(t *testing.T) {
	for _, tc := range []struct{ capacity, wantCap, wantShards int }{
		{-3, 1, 1}, {0, 1, 1}, {1, 1, 1}, {2, 2, 2}, {15, 15, 15}, {16, 16, 16},
		{17, 32, 16}, {128, 128, 16}, {129, 144, 16}, {65536, 65536, 16},
	} {
		c := New[int](tc.capacity, Counters{})
		if c.Capacity() != tc.wantCap || c.Shards() != tc.wantShards {
			t.Errorf("New(%d): capacity/shards = %d/%d, want %d/%d",
				tc.capacity, c.Capacity(), c.Shards(), tc.wantCap, tc.wantShards)
		}
	}
}

// TestGetOrBuildDedup parks callers behind an in-flight build: each gets
// the leader's value, counted as a miss and a dedup, and build runs once.
func TestGetOrBuildDedup(t *testing.T) {
	cnt := newCounters()
	c := New[string](4, cnt)
	started, release := make(chan struct{}), make(chan struct{})
	builds := 0
	leader := make(chan string, 1)
	go func() {
		v, _, _ := c.GetOrBuild("k", func() (string, error) {
			builds++
			close(started)
			<-release
			return "leader", nil
		})
		leader <- v
	}()
	<-started

	const waiters = 3
	got := make(chan string, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			v, hit, err := c.GetOrBuild("k", func() (string, error) {
				t.Error("waiter ran its own build")
				return "waiter", nil
			})
			if hit || err != nil {
				t.Errorf("waiter: hit %v, err %v; want a miss without error", hit, err)
			}
			got <- v
		}()
	}
	waitUntil(t, "the waiters to join the build", func() bool { return cnt.Dedups.Value() == waiters })
	if _, ok := c.Get("k"); ok {
		t.Error("Get saw a value before the build finished")
	}
	close(release)
	if v := <-leader; v != "leader" {
		t.Errorf("leader got %q", v)
	}
	for i := 0; i < waiters; i++ {
		if v := <-got; v != "leader" {
			t.Errorf("waiter got %q, want the leader's value", v)
		}
	}
	if builds != 1 {
		t.Errorf("%d builds, want 1", builds)
	}
	if v, hit, err := c.GetOrBuild("k", nil); !hit || err != nil || v != "leader" {
		t.Errorf("after the build: %q, hit %v, err %v; want a cached hit", v, hit, err)
	}
	if h, m, d := cnt.Hits.Value(), cnt.Misses.Value(), cnt.Dedups.Value(); h != 1 || m != 1+waiters || d != waiters {
		t.Errorf("hits/misses/dedups = %d/%d/%d, want 1/%d/%d", h, m, d, 1+waiters, waiters)
	}
}

// TestLRUOrder: eviction inside one shard drops the least recently used
// entry, where both Get and GetOrBuild hits count as uses (but only
// GetOrBuild lookups are counted).
func TestLRUOrder(t *testing.T) {
	cnt := newCounters()
	c := New[int](2*MaxShards, cnt) // two entries per shard
	// Every key starts with 'a', so all share one shard.
	c.Put("a1", 1)
	c.Put("a2", 2)
	if _, ok := c.Get("a1"); !ok { // a2 is now least recently used
		t.Fatal("a1 missing")
	}
	c.Put("a3", 3)
	if _, ok := c.Get("a2"); ok {
		t.Error("a2 survived; the least recently used entry should have been evicted")
	}
	if _, hit, _ := c.GetOrBuild("a1", nil); !hit { // a3 is now least recently used
		t.Error("a1 was evicted")
	}
	if _, _, err := c.GetOrBuild("a4", func() (int, error) { return 4, nil }); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]bool{"a1": true, "a2": false, "a3": false, "a4": true} {
		if _, ok := c.Get(key); ok != want {
			t.Errorf("%s cached = %v, want %v", key, ok, want)
		}
	}
	if n := cnt.Evictions.Value(); n != 2 {
		t.Errorf("evictions = %d, want 2", n)
	}
	if h, m := cnt.Hits.Value(), cnt.Misses.Value(); h != 1 || m != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1: only GetOrBuild counts, Get and Put do not", h, m)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

// TestShardBound fills a cache from many goroutines with keys spread over
// every hex digit: no shard ever holds more than its share.
func TestShardBound(t *testing.T) {
	for _, capacity := range []int{2, MaxShards, 2 * MaxShards} {
		cnt := newCounters()
		c := New[int](capacity, cnt)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 64; i++ {
					key := fmt.Sprintf("%x%d", (g+i)%16, i)
					if _, _, err := c.GetOrBuild(key, func() (int, error) { return i, nil }); err != nil {
						t.Error(err)
					}
				}
			}(g)
		}
		wg.Wait()
		for i := range c.shards {
			if n := c.shards[i].order.Len(); n > c.perShard {
				t.Errorf("capacity %d: shard %d holds %d entries, bound %d", capacity, i, n, c.perShard)
			}
		}
		if c.Len() > c.Capacity() {
			t.Errorf("capacity %d: Len %d over the bound", capacity, c.Len())
		}
		if got, want := cnt.Evictions.Value(), cnt.Misses.Value()-cnt.Dedups.Value()-uint64(c.Len()); got != want {
			t.Errorf("capacity %d: %d evictions, want builds − resident = %d", capacity, got, want)
		}
	}
}

// TestFailedBuild: a build that returns an error or panics hands that
// error to the leader and every waiter, caches nothing, and the next call
// builds again.
func TestFailedBuild(t *testing.T) {
	boom := errors.New("boom")
	for name, fail := range map[string]func() (int, error){
		"error": func() (int, error) { return 0, boom },
		"panic": func() (int, error) { panic("boom") },
	} {
		t.Run(name, func(t *testing.T) {
			cnt := newCounters()
			c := New[int](4, cnt)
			started, release := make(chan struct{}), make(chan struct{})
			leader := make(chan error, 1)
			go func() {
				_, _, err := c.GetOrBuild("k", func() (int, error) {
					close(started)
					<-release
					return fail()
				})
				leader <- err
			}()
			<-started
			const waiters = 3
			errs := make(chan error, waiters)
			for i := 0; i < waiters; i++ {
				go func() {
					_, _, err := c.GetOrBuild("k", func() (int, error) {
						t.Error("waiter ran its own build")
						return 0, nil
					})
					errs <- err
				}()
			}
			waitUntil(t, "the waiters to join the build", func() bool { return cnt.Dedups.Value() == waiters })
			close(release)

			lerr := <-leader
			if lerr == nil || !strings.Contains(lerr.Error(), "boom") {
				t.Fatalf("leader error = %v, want the build's failure", lerr)
			}
			for i := 0; i < waiters; i++ {
				if err := <-errs; err != lerr {
					t.Errorf("waiter error = %v, want the leader's %v", err, lerr)
				}
			}
			if _, ok := c.Get("k"); ok || c.Len() != 0 {
				t.Errorf("failed build was cached (Len %d)", c.Len())
			}
			v, hit, err := c.GetOrBuild("k", func() (int, error) { return 7, nil })
			if v != 7 || hit || err != nil {
				t.Errorf("rebuild after failure: %d, hit %v, err %v; want a fresh build of 7", v, hit, err)
			}
		})
	}
}
