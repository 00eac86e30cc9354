// Command topoinv is the CLI around the library.  It has seven subcommands:
//
//	topoinv measure -workload landuse -scale 1 -strategy auto
//	    generate a built-in workload, print the compression statistics of the
//	    paper's practical-considerations section (estimated and measured
//	    serialized bytes) and answer a built-in query with a chosen strategy;
//	topoinv encode -workload landuse -scale 1 -o inst.tinv [-invariant]
//	    serialize a workload instance (or its invariant) to the versioned
//	    binary format;
//	topoinv decode -i inst.tinv
//	    deserialize a blob and print a summary;
//	topoinv import -i map.geojson -o inst.tinv [-precision 7]
//	    convert a GeoJSON document (rationally snapped and validated) to a
//	    binary instance;
//	topoinv ask -q 'exists u . in(P, u)' [-i inst.tinv | -workload nested]
//	    parse a sentence of the FO(P,<x,<y) query language, canonicalize it
//	    and answer it with a chosen strategy;
//	topoinv similar -store dir [-i inst.tinv | -workload nested] -k 5
//	    rank the store's analysed instances by topological similarity to a
//	    probe: homeomorphism-class matches first, then feature-space
//	    neighbours;
//	topoinv serve -addr :8080 [-store dir]
//	    run the concurrent query engine behind a small HTTP JSON API, with an
//	    optional disk-persistent invariant store, Prometheus metrics at
//	    /metrics, structured logging and graceful shutdown.
//
// Running with no subcommand behaves like "measure" (the historical CLI).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"maps"
	"os"
	"slices"
	"strings"

	"repro/internal/stats"
	"repro/topoinv"
)

func main() {
	args := os.Args[1:]
	cmd := "measure"
	if len(args) > 0 {
		switch {
		case args[0] == "measure" || args[0] == "encode" || args[0] == "decode" || args[0] == "serve" || args[0] == "import" || args[0] == "ask" || args[0] == "similar":
			cmd, args = args[0], args[1:]
		case args[0] == "-h" || args[0] == "--help" || args[0] == "help":
			usage()
			return
		case len(args[0]) > 0 && args[0][0] != '-':
			fmt.Fprintf(os.Stderr, "topoinv: unknown command %q\n\n", args[0])
			usage()
			os.Exit(2)
		}
	}
	switch cmd {
	case "measure":
		runMeasure(args)
	case "encode":
		runEncode(args)
	case "decode":
		runDecode(args)
	case "import":
		runImport(args)
	case "ask":
		runAsk(args)
	case "similar":
		runSimilar(args)
	case "serve":
		runServe(args)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: topoinv <command> [flags]

commands:
  measure   compute invariant + compression statistics for a workload (default)
  encode    serialize a workload instance or invariant to binary
  decode    read a binary blob and print a summary
  import    convert a GeoJSON document to a binary instance
  ask       answer one FO(P,<x,<y) sentence against an instance
  similar   rank a store's instances by topological similarity to a probe
  serve     run the query engine as an HTTP JSON service

Run "topoinv <command> -h" for per-command flags.
`)
}

func runMeasure(args []string) {
	fs := flag.NewFlagSet("measure", flag.ExitOnError)
	workloadName := fs.String("workload", "landuse", "workload: landuse | hydrography | commune | nested | multicomponent")
	scale := fs.Int("scale", 1, "workload scale factor")
	strategy := fs.String("strategy", "auto", "query strategy: "+strategyNames)
	fs.Parse(args)

	inst, bpp, bpc := buildWorkload(*workloadName, *scale)
	c, err := topoinv.Measure(*workloadName, inst, bpp, bpc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(stats.Header())
	fmt.Println(c.Row())
	fmt.Println()
	fmt.Println(stats.MeasuredHeader())
	fmt.Println(c.MeasuredRow())

	db, err := topoinv.Open(inst)
	if err != nil {
		log.Fatal(err)
	}
	query := topoinv.NonEmpty(measureRegion(inst))
	s, err := parseStrategy(*strategy)
	if err != nil {
		log.Fatal(err)
	}
	ans, err := db.Ask(query, s)
	if err != nil {
		log.Fatalf("query with strategy %s: %v", *strategy, err)
	}
	fmt.Printf("query %s with strategy %s: %v\n", query, s, ans)
}

// measureRegion names the region measure's query asks about: the first in
// schema order that has features, so that the answer is not a trivial
// false, or the first region when every one is empty.
func measureRegion(inst *topoinv.Instance) string {
	names := inst.Schema().Names()
	for _, n := range names {
		if !inst.Region(n).IsEmpty() {
			return n
		}
	}
	return names[0]
}

var strategies = map[string]topoinv.Strategy{
	"direct":     topoinv.Direct,
	"fo":         topoinv.ViaInvariantFO,
	"fixpoint":   topoinv.ViaInvariantFixpoint,
	"linearized": topoinv.ViaLinearized,
	// auto picks fixpoint when the instance's invariant supports inversion
	// and falls back to direct otherwise, instead of erroring.
	"auto": topoinv.Auto,
}

// strategyNames lists the strategies table's names for help and error text.
var strategyNames = strings.Join(slices.Sorted(maps.Keys(strategies)), " | ")

func runEncode(args []string) {
	fs := flag.NewFlagSet("encode", flag.ExitOnError)
	workloadName := fs.String("workload", "landuse", "workload to generate")
	scale := fs.Int("scale", 1, "workload scale factor")
	out := fs.String("o", "", "output file (default stdout)")
	asInvariant := fs.Bool("invariant", false, "encode the computed invariant instead of the instance")
	fs.Parse(args)

	inst, _, _ := buildWorkload(*workloadName, *scale)
	var data []byte
	var err error
	if *asInvariant {
		inv, cerr := topoinv.ComputeInvariant(inst)
		if cerr != nil {
			log.Fatal(cerr)
		}
		data, err = topoinv.EncodeInvariant(inv)
	} else {
		data, err = topoinv.Encode(inst)
	}
	if err != nil {
		log.Fatal(err)
	}
	if *out == "" {
		if _, err := os.Stdout.Write(data); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %d bytes to %s\n", len(data), *out)
}

func runDecode(args []string) {
	fs := flag.NewFlagSet("decode", flag.ExitOnError)
	in := fs.String("i", "", "input file (default stdin)")
	fs.Parse(args)

	var data []byte
	var err error
	if *in == "" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(*in)
	}
	if err != nil {
		log.Fatal(err)
	}
	// Dispatch on the payload-kind byte of the header so errors come from
	// the decoder that actually matches the blob.
	kind, err := topoinv.PayloadKind(data)
	if err != nil {
		log.Fatalf("invalid blob: %v", err)
	}
	if kind == topoinv.KindInvariant {
		inv, err := topoinv.DecodeInvariant(data)
		if err != nil {
			log.Fatalf("invalid invariant blob: %v", err)
		}
		fmt.Printf("invariant: %s\n", inv)
		fmt.Printf("schema:    %v\n", inv.Schema.Names())
		return
	}
	inst, err := topoinv.Decode(data)
	if err != nil {
		log.Fatalf("invalid instance blob: %v", err)
	}
	key, err := topoinv.InstanceKey(inst)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("instance: %s\n", inst.Summarise())
	fmt.Printf("schema:   %v\n", inst.Schema().Names())
	fmt.Printf("key:      %s\n", key)
}

// buildWorkload generates a workload (shared with the serve subcommand) and
// returns it with the paper's bytes-per-point / bytes-per-cell accounting
// (Sequoia land use: 20/3, IGN commune: 18/2, others 20/2).
func buildWorkload(name string, scale int) (*topoinv.Instance, int, int) {
	inst, err := generateWorkload(name, scale)
	if err != nil {
		log.Fatal(err)
	}
	bpp, bpc := 20, 2
	switch name {
	case "landuse":
		bpc = 3
	case "commune":
		bpp = 18
	}
	return inst, bpp, bpc
}

// readInstance returns the instance the ask and similar subcommands run on:
// a binary blob (-i, as written by encode or import) or a built-in workload
// (-workload and -scale).  cmd prefixes the error text.
func readInstance(cmd, in, workload string, scale int) *topoinv.Instance {
	switch {
	case in != "" && workload != "":
		log.Fatalf("%s: provide -i or -workload, not both", cmd)
	case workload != "":
		inst, _, _ := buildWorkload(workload, scale)
		return inst
	case in == "":
		log.Fatalf("%s: provide an instance via -i or -workload", cmd)
	}
	data, err := os.ReadFile(in)
	if err != nil {
		log.Fatal(err)
	}
	inst, err := topoinv.Decode(data)
	if err != nil {
		log.Fatalf("%s: %s is not a valid instance blob: %v", cmd, in, err)
	}
	return inst
}
