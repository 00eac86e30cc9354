// Package lru is the engine's one cache design: a bounded, string-keyed LRU
// map split over up to 16 mutex-guarded shards, with a singleflight
// GetOrBuild so concurrent misses on one key run one build.
//
// Keys are routed by their leading hex digit, so hex content addresses
// (SHA-256) spread uniformly and goroutines working on different keys rarely
// share a lock.  A capacity below the shard count routes keys over only
// `capacity` shards of one entry each, which keeps small caches exactly
// bounded instead of inflating to one entry per shard; larger capacities are
// enforced per shard and so round up to a multiple of 16.
package lru

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/obs"
)

// MaxShards is the fan-out of a cache whose capacity is at least 16.
const MaxShards = 16

// Counters are the instruments a cache increments.  A nil field counts
// nothing.
type Counters struct {
	// Hits and Misses count GetOrBuild lookups; a waiter on another
	// caller's build is a miss and also a Dedup.  Get counts nothing.
	Hits, Misses, Dedups *obs.Counter
	// Evictions counts entries dropped from an LRU tail.
	Evictions *obs.Counter
}

// Sharded is a bounded LRU map from string keys to V.  All methods are safe
// for concurrent use.
type Sharded[V any] struct {
	shards   []shard[V]
	perShard int
	counters Counters
}

type shard[V any] struct {
	mu       sync.Mutex
	order    *list.List // of *entry[V], front = most recently used
	entries  map[string]*list.Element
	inflight map[string]*call[V]
}

type entry[V any] struct {
	key string
	val V
}

// call is an in-flight build other goroutines can wait on.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New returns a cache bounded to capacity entries.  Capacities up to
// MaxShards are exact; larger ones round up to the next multiple of
// MaxShards (Capacity reports the bound enforced).  Values < 1 are treated
// as 1.
func New[V any](capacity int, c Counters) *Sharded[V] {
	capacity = max(capacity, 1)
	n := min(capacity, MaxShards)
	s := &Sharded[V]{shards: make([]shard[V], n), perShard: (capacity + n - 1) / n, counters: c}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.order = list.New()
		sh.entries = make(map[string]*list.Element)
		sh.inflight = make(map[string]*call[V])
	}
	return s
}

// Capacity is the bound the cache enforces: entries per shard × shards.
func (s *Sharded[V]) Capacity() int { return s.perShard * len(s.shards) }

// Shards is the number of shards keys are routed over.
func (s *Sharded[V]) Shards() int { return len(s.shards) }

func (s *Sharded[V]) shardFor(key string) *shard[V] {
	if key == "" {
		return &s.shards[0]
	}
	return &s.shards[hexVal(key[0])%len(s.shards)]
}

func hexVal(b byte) int {
	switch {
	case b >= '0' && b <= '9':
		return int(b - '0')
	case b >= 'a' && b <= 'f':
		return int(b-'a') + 10
	default:
		return 0
	}
}

// Get returns the value cached under key and marks it most recently used.
// It counts nothing and never waits on an in-flight build.
func (s *Sharded[V]) Get(key string) (V, bool) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	sh.order.MoveToFront(el)
	return el.Value.(*entry[V]).val, true
}

// Put caches v under key as the most recently used entry, replacing any
// value already there.
func (s *Sharded[V]) Put(key string, v V) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s.insert(sh, key, v)
}

// Len is the number of cached entries.
func (s *Sharded[V]) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.order.Len()
		sh.mu.Unlock()
	}
	return n
}

// GetOrBuild returns the value cached under key, or builds, caches and
// returns it.  Concurrent misses on one key share one build: the first
// caller runs build outside the shard lock, the others wait for its result.
// hit reports that the value came from the cache.  A build that fails or
// panics caches nothing and hands its error to the leader and every waiter,
// so the next call builds again.
func (s *Sharded[V]) GetOrBuild(key string, build func() (V, error)) (v V, hit bool, err error) {
	sh := s.shardFor(key)

	//lint:allow lockdiscipline(the hit and dedup branches must release before returning or blocking on c.done — holding the shard across a build would serialize the cache; every branch unlocks before its return)
	sh.mu.Lock()
	if el, ok := sh.entries[key]; ok {
		sh.order.MoveToFront(el)
		v := el.Value.(*entry[V]).val
		sh.mu.Unlock()
		inc(s.counters.Hits)
		return v, true, nil
	}
	if c, ok := sh.inflight[key]; ok {
		sh.mu.Unlock()
		inc(s.counters.Dedups)
		inc(s.counters.Misses)
		<-c.done
		return c.val, false, c.err
	}
	c := &call[V]{done: make(chan struct{})}
	sh.inflight[key] = c
	sh.mu.Unlock()
	inc(s.counters.Misses)

	// The inflight entry must be cleared and done closed even if build
	// panics (the geometry layer has panic sites); otherwise every later
	// caller for this key would block forever on c.done.
	defer func() {
		if r := recover(); r != nil {
			var zero V
			c.val, c.err = zero, fmt.Errorf("lru: build panicked: %v", r)
			v, err = c.val, c.err
		}
		sh.mu.Lock()
		delete(sh.inflight, key)
		if c.err == nil {
			s.insert(sh, key, c.val)
		}
		sh.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = build()
	return c.val, false, c.err
}

// insert caches v under key at the LRU front and evicts from the tail past
// the shard bound.  Called with sh.mu held.
func (s *Sharded[V]) insert(sh *shard[V], key string, v V) {
	if el, ok := sh.entries[key]; ok {
		el.Value.(*entry[V]).val = v
		sh.order.MoveToFront(el)
		return
	}
	sh.entries[key] = sh.order.PushFront(&entry[V]{key: key, val: v})
	for sh.order.Len() > s.perShard {
		tail := sh.order.Back()
		sh.order.Remove(tail)
		delete(sh.entries, tail.Value.(*entry[V]).key)
		inc(s.counters.Evictions)
	}
}

func inc(c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
}
