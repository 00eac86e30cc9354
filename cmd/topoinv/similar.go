// The similar subcommand ranks the instances of a persistent invariant
// store by topological similarity to a probe:
//
//	topoinv similar -store invariants -i map.tinv -k 5
//	topoinv similar -store invariants -workload nested -scale 2
//
// The probe comes from a binary blob (-i, as written by encode/import) or a
// built-in workload (-workload/-scale).  Opening the store reloads the
// similarity index persisted beside it (SIMINDEX.bin), reindexing any blobs
// the file does not cover, so the corpus is every instance the store has
// ever analysed.  Matches in the probe's homeomorphism equivalence class
// come first at distance 0 ("exact"); the rest are ranked by the
// feature-space distance.
//
// The store is single-writer: if a serve process holds its lock, this
// command fails with a "store busy" error — query the running server's
// GET /v1/instances/{id}/similar endpoint instead.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/topoinv"
)

func runSimilar(args []string) {
	fs := flag.NewFlagSet("similar", flag.ExitOnError)
	storeDir := fs.String("store", "", "directory of the disk-persistent invariant store (required: it is the corpus)")
	in := fs.String("i", "", "binary instance file as the probe (output of topoinv encode or import)")
	workloadName := fs.String("workload", "", "built-in workload as the probe instead of -i: landuse | hydrography | commune | nested | multicomponent")
	scale := fs.Int("scale", 1, "workload scale factor")
	k := fs.Int("k", 5, "number of matches to print")
	fs.Parse(args)

	if *storeDir == "" {
		log.Fatal("similar: -store is required (the store is the similarity corpus)")
	}
	if *k < 1 {
		log.Fatal("similar: -k must be a positive integer")
	}
	inst := readInstance("similar", *in, *workloadName, *scale)

	engine := topoinv.NewEngine(topoinv.WithStore(*storeDir))
	if err := engine.StoreErr(); err != nil {
		log.Fatalf("similar: %v (a store locked by a running server must be queried over HTTP: GET /v1/instances/{id}/similar)", err)
	}
	defer engine.Close()

	matches, err := engine.Similar(inst, *k)
	if err != nil {
		log.Fatalf("similar: %v", err)
	}
	key, err := topoinv.InstanceKey(inst)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("probe:   %s\n", key)
	if ent, ok := engine.SimEntry(inst); ok {
		if ent.Class != "" {
			fmt.Printf("class:   %s\n", ent.Class)
		} else {
			fmt.Printf("class:   (abstained: component over the canonical-code budget)\n")
		}
		fmt.Printf("fprint:  %s\n", ent.Fingerprint)
	}
	st := engine.Stats()
	fmt.Printf("corpus:  %d instances, %d exact classes (%d loaded from index, %d reindexed)\n",
		st.Sim.Entries, st.Sim.Classes, st.SimLoaded, st.SimReindexed)
	if len(matches) == 0 {
		fmt.Println("no matches: the store holds no other analysed instance")
		return
	}
	fmt.Printf("%-8s %-12s %s\n", "tier", "distance", "id")
	for _, m := range matches {
		tier := "approx"
		if m.Exact {
			tier = "exact"
		}
		fmt.Printf("%-8s %-12.6f %s\n", tier, m.Distance, m.ID)
	}
}
