package simindex

import (
	"sort"
	"sync"

	"repro/internal/invariant"
)

// Entry is one indexed instance: its engine key, its exact-tier class (""
// when the exact tier abstained), its fingerprint hash and its feature
// vector.
type Entry struct {
	// ID is the engine's content-addressed instance key.
	ID string
	// Class is the exact-tier equivalence class (hex SHA-256 of the
	// canonical key), or "" when the canonical-code budget forced
	// abstention.
	Class string
	// Fingerprint is the hex SHA-256 of invariant.Fingerprint.
	Fingerprint string
	// Vec is the approximate-tier feature vector.
	Vec Vector
}

// Match is one ranked retrieval result.
type Match struct {
	// ID is the matched instance's engine key.
	ID string `json:"id"`
	// Distance is the comparative measure to the probe (0 for exact-tier
	// matches).
	Distance float64 `json:"distance"`
	// Exact reports whether the match came from the exact tier (same
	// homeomorphism equivalence class as the probe).
	Exact bool `json:"exact"`
}

// Stats summarizes the index for observability surfaces.
type Stats struct {
	// Entries is the number of indexed instances.
	Entries int `json:"entries"`
	// Classes is the number of distinct exact-tier equivalence classes.
	Classes int `json:"classes"`
	// Abstained is the number of entries whose invariant exceeded the
	// canonical-code budget (approximate tier only).
	Abstained int `json:"abstained"`
}

// Index is the two-tier similarity index. It is safe for concurrent use.
// The approximate tier is an exact linear scan over every live entry.
type Index struct {
	mu      sync.RWMutex
	entries map[string]*Entry   // by ID
	classes map[string][]string // class → sorted IDs
}

// New returns an empty index.
func New() *Index {
	return &Index{
		entries: make(map[string]*Entry),
		classes: make(map[string][]string),
	}
}

// MakeEntry derives the index entry for an invariant. It is the only
// constructor the engine uses, so key/vector derivation stays in one place.
func MakeEntry(id string, inv *invariant.Invariant) *Entry {
	return &Entry{
		ID:          id,
		Class:       ClassID(inv),
		Fingerprint: FingerprintID(inv),
		Vec:         Features(inv),
	}
}

// Add inserts (or refreshes) an entry. Adding an ID twice is a no-op when
// the entry is unchanged, which makes store-reconciliation idempotent.
func (x *Index) Add(e *Entry) {
	if e == nil || e.ID == "" {
		return
	}
	done := startTimer(mUpdateLatency)
	defer done()
	x.mu.Lock()
	defer x.mu.Unlock()
	if old, ok := x.entries[e.ID]; ok {
		if *old == *e {
			return
		}
		x.removeLocked(old)
	}
	cp := *e
	x.entries[e.ID] = &cp
	if cp.Class != "" {
		ids := x.classes[cp.Class]
		at := sort.SearchStrings(ids, cp.ID)
		ids = append(ids, "")
		copy(ids[at+1:], ids[at:])
		ids[at] = cp.ID
		x.classes[cp.Class] = ids
	}
	mEntries.Set(int64(len(x.entries)))
	mClasses.Set(int64(len(x.classes)))
}

// removeLocked unlinks an entry from the entry and class maps.
func (x *Index) removeLocked(e *Entry) {
	delete(x.entries, e.ID)
	if e.Class != "" {
		ids := x.classes[e.Class]
		at := sort.SearchStrings(ids, e.ID)
		if at < len(ids) && ids[at] == e.ID {
			ids = append(ids[:at], ids[at+1:]...)
		}
		if len(ids) == 0 {
			delete(x.classes, e.Class)
		} else {
			x.classes[e.Class] = ids
		}
	}
}

// Has reports whether the ID is indexed.
func (x *Index) Has(id string) bool {
	x.mu.RLock()
	defer x.mu.RUnlock()
	_, ok := x.entries[id]
	return ok
}

// Get returns the entry for an ID.
func (x *Index) Get(id string) (Entry, bool) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	e, ok := x.entries[id]
	if !ok {
		return Entry{}, false
	}
	return *e, true
}

// Len returns the number of indexed entries.
func (x *Index) Len() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return len(x.entries)
}

// Stats returns index size counters.
func (x *Index) Stats() Stats {
	x.mu.RLock()
	defer x.mu.RUnlock()
	abstained := 0
	//lint:allow determinism(counting map values is order-independent)
	for _, e := range x.entries {
		if e.Class == "" {
			abstained++
		}
	}
	return Stats{Entries: len(x.entries), Classes: len(x.classes), Abstained: abstained}
}

// Entries returns a snapshot of all entries sorted by ID (the persistent
// serialization order).
func (x *Index) Entries() []Entry {
	x.mu.RLock()
	defer x.mu.RUnlock()
	out := make([]Entry, 0, len(x.entries))
	//lint:allow determinism(snapshot is sorted by ID below)
	for _, e := range x.entries {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Query returns the top-k matches for a probe entry: exact-tier matches
// first (distance 0, sorted by ID), then approximate matches ranked by
// (distance, ID). The probe's own ID is excluded, so an indexed instance
// can probe for its neighbours. k ≤ 0 returns nil.
func (x *Index) Query(probe *Entry, k int) []Match {
	if k <= 0 || probe == nil {
		return nil
	}
	done := startTimer(mQueryLatency)
	defer done()
	x.mu.RLock()
	defer x.mu.RUnlock()

	out := make([]Match, 0, k)

	// Exact tier: O(1) class lookup.
	if probe.Class != "" {
		for _, id := range x.classes[probe.Class] {
			if id == probe.ID {
				continue
			}
			out = append(out, Match{ID: id, Distance: 0, Exact: true})
			if len(out) == k {
				mExactHits.Add(uint64(len(out)))
				return out
			}
		}
	}
	mExactHits.Add(uint64(len(out)))

	// Approximate tier over the remaining capacity. Reaching it means the
	// exact tier returned every classmate of the probe.
	return append(out, x.scanKNN(probe, k-len(out))...)
}

// scanKNN scans every live entry except the probe and its exact-tier
// classmates and keeps the best `want` by (distance, ID).
func (x *Index) scanKNN(probe *Entry, want int) []Match {
	ms := make([]Match, 0, len(x.entries))
	//lint:allow determinism(scan candidates are re-ranked by (distance, ID))
	for id, e := range x.entries {
		if id != probe.ID && (probe.Class == "" || e.Class != probe.Class) {
			ms = append(ms, Match{ID: id, Distance: Distance(probe.Vec, e.Vec)})
		}
	}
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Distance != ms[j].Distance {
			return ms[i].Distance < ms[j].Distance
		}
		return ms[i].ID < ms[j].ID
	})
	if len(ms) > want {
		ms = ms[:want]
	}
	return ms
}

// Rebuild does nothing: queries scan the live entries, so there is no
// search structure to rebuild. It stays only because perfbench's traced
// replay calls it after loading an index file, and goes with that replay.
func (x *Index) Rebuild() {}
