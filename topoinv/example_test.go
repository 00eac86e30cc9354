package topoinv_test

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/topoinv"
)

// ExampleOpen is README's Quickstart.
func ExampleOpen() {
	schema := topoinv.MustSchema("P", "Q")
	inst := topoinv.MustBuild(schema, map[string]topoinv.Region{
		"P": topoinv.Rect(0, 0, 10, 10),
		"Q": topoinv.Rect(3, 3, 6, 6),
	})
	db, _ := topoinv.Open(inst)
	inv, _ := db.Invariant()                      // top(I)
	ok, _ := db.Ask(topoinv.Intersects("P", "Q"), // a topological query
		topoinv.ViaInvariantFixpoint) // answered on top(I)
	fmt.Println(inv)
	fmt.Println("intersects:", ok)
	ok, _ = db.AskText( // or written as a sentence
		"exists u . in(P, u) and in(Q, u)", topoinv.Auto)
	fmt.Println("as a sentence:", ok)
	// Output:
	// top(I): 0 vertices, 2 edges, 3 faces (5 cells)
	// intersects: true
	// as a sentence: true
}

// ExampleNewEngine is README's Persistence snippet, with its store in a
// temporary directory, followed by the restart the text after it describes.
func ExampleNewEngine() {
	inst := topoinv.MustBuild(topoinv.MustSchema("P", "Q"), map[string]topoinv.Region{
		"P": topoinv.Rect(0, 0, 10, 10),
		"Q": topoinv.Rect(3, 3, 6, 6),
	})
	dir, err := os.MkdirTemp("", "topoinv-example")
	if err != nil {
		fmt.Println(err)
		return
	}
	defer os.RemoveAll(dir)
	storeDir := filepath.Join(dir, "invariants")

	data, _ := topoinv.Encode(inst)     // deterministic versioned binary blob
	inst2, _ := topoinv.Decode(data)    // structural round-trip
	key, _ := topoinv.InstanceKey(inst) // content address: SHA-256 of the blob
	key2, _ := topoinv.InstanceKey(inst2)
	fmt.Println("round trip keeps the key:", key == key2)

	eng := topoinv.NewEngine(topoinv.WithCacheCapacity(256), topoinv.WithWorkers(8),
		topoinv.WithStore(storeDir)) // disk-persistent invariant store
	inv, _ := eng.Invariant(inst) // computed once, then cache hits
	results := eng.Batch([]topoinv.BatchRequest{
		{Instance: inst, Query: topoinv.Intersects("P", "Q")},
		{Instance: inst, Query: topoinv.HasInterior("P")},
	}, topoinv.ViaInvariantFixpoint) // evaluated on the worker pool
	stats := eng.Stats()               // hit/miss/latency + store counters
	fmt.Println("close:", eng.Close()) // flush the store manifest
	fmt.Println(inv)
	for _, r := range results {
		fmt.Println("answer:", r.Answer, r.Err)
	}
	fmt.Println("computes:", stats.Computes, "store puts:", stats.StorePuts)

	restarted := topoinv.NewEngine(topoinv.WithStore(storeDir))
	defer restarted.Close()
	if _, err := restarted.Invariant(inst); err != nil {
		fmt.Println(err)
	}
	stats = restarted.Stats()
	fmt.Println("after restart: computes:", stats.Computes, "store hits:", stats.StoreHits)
	// Output:
	// round trip keeps the key: true
	// close: <nil>
	// top(I): 0 vertices, 2 edges, 3 faces (5 cells)
	// answer: true <nil>
	// answer: true <nil>
	// computes: 1 store puts: 1
	// after restart: computes: 0 store hits: 1
}
