package engine

import (
	"fmt"
	"sort"

	"repro/internal/codec"
	"repro/internal/invariant"
	"repro/internal/simindex"
	"repro/internal/spatial"
)

// Similarity-index wiring: the engine maintains a simindex.Index
// incrementally on its invariant-build path (every invariant that enters
// the memory cache or the disk store is indexed), persists it beside the
// store (SIMINDEX.bin) on Close, and reconciles it against the store's
// blobs at startup so a restart serves similarity queries without
// recomputing canonical codes for the whole corpus.

// simInit loads the persisted index file and reconciles it against the
// store: blobs present on disk but missing from the index (e.g. written by
// an older build, or a crash before Close) are decoded and indexed once.
// Called from New after the store opens; single-threaded.
func (e *Engine) simInit() {
	e.sim = simindex.New()
	if e.store == nil {
		return
	}
	n, err := e.sim.LoadFile(simindex.IndexFilePath(e.store.Dir()))
	if err != nil {
		// The index file is derived data: on any load failure fall back to
		// reindexing from the store below.
		e.m.simErrors.Inc()
	}
	e.m.simLoaded.Add(uint64(n))
	keys := e.store.Keys()
	sort.Strings(keys)
	for _, key := range keys {
		if e.sim.Has(key) {
			continue
		}
		data, ok, err := e.store.Get(key)
		if err != nil || !ok {
			if err != nil {
				e.m.simErrors.Inc()
			}
			continue
		}
		inv, err := codec.DecodeInvariant(data)
		if err != nil {
			e.m.simErrors.Inc()
			continue
		}
		e.sim.Add(simindex.MakeEntry(key, inv))
		e.m.simReindexed.Inc()
	}
	e.sim.Rebuild()
}

// simAdd indexes an invariant under its content key. Skipping keys already
// present keeps the (canonical-code) entry derivation off the store-hit
// path after the first sighting.
func (e *Engine) simAdd(key string, inv *invariant.Invariant) {
	if e.sim == nil || e.sim.Has(key) {
		return
	}
	e.sim.Add(simindex.MakeEntry(key, inv))
}

// simSave persists the index beside the store's manifest. Called from
// Close; an engine without a store keeps its index memory-only.
func (e *Engine) simSave() {
	if e.sim == nil || e.store == nil {
		return
	}
	if err := e.sim.SaveFile(simindex.IndexFilePath(e.store.Dir())); err != nil {
		e.m.simErrors.Inc()
	}
}

// Similar returns the top-k instances most similar to the probe: exact-tier
// matches (same homeomorphism class) first at distance 0, then approximate
// matches ranked by the feature-space comparative measure. The probe joins
// the corpus (its invariant is resolved through the usual
// cache → store → compute path) and is excluded from its own results.
func (e *Engine) Similar(inst *spatial.Instance, k int) ([]simindex.Match, error) {
	inv, _, err := e.invariant(inst)
	if err != nil {
		return nil, err
	}
	key, err := e.key(inst)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	probe, ok := e.sim.Get(key)
	if !ok {
		// The invariant came from the memory cache of a pre-index build or
		// the index was never populated for it; derive the entry directly.
		probe = *simindex.MakeEntry(key, inv)
		e.sim.Add(&probe)
	}
	return e.sim.Query(&probe, k), nil
}

// SimEntry returns the similarity-index entry (equivalence class,
// fingerprint, feature vector) for an instance already known to the engine,
// without forcing an invariant computation.
func (e *Engine) SimEntry(inst *spatial.Instance) (simindex.Entry, bool) {
	if e.sim == nil {
		return simindex.Entry{}, false
	}
	key, err := e.key(inst)
	if err != nil {
		return simindex.Entry{}, false
	}
	return e.sim.Get(key)
}
