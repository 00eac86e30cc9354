// The ask subcommand answers one FO(P,<x,<y) sentence against an instance:
//
//	topoinv ask -q 'exists u . in(P, u) and interior(Q, u)' -i map.tinv
//	topoinv ask -q 'forall u . in(P, u) implies not interior(P, u)' \
//	        -workload nested -scale 2 -strategy auto -store invariants
//
// The instance comes from a binary blob (-i, as written by encode/import) or
// a built-in workload (-workload/-scale); -store points the engine at a
// disk-persistent invariant store so repeated asks across processes skip the
// arrangement.  The canonical form, the answer, the strategy that ran and
// the cache path taken are printed; -timings adds the per-stage span
// breakdown (answer cache, invariant fetch, evaluation); parse and schema
// errors show the byte offset with a caret under the offending token.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/topoinv"
)

func runAsk(args []string) {
	fs := flag.NewFlagSet("ask", flag.ExitOnError)
	q := fs.String("q", "", "FO(P,<x,<y) sentence, e.g. 'exists u . in(P, u)'")
	in := fs.String("i", "", "binary instance file (output of topoinv encode or import)")
	workloadName := fs.String("workload", "", "built-in workload instead of -i: landuse | hydrography | commune | nested | multicomponent")
	scale := fs.Int("scale", 1, "workload scale factor")
	strategy := fs.String("strategy", "auto", "query strategy: "+strategyNames)
	storeDir := fs.String("store", "", "directory of a disk-persistent invariant store (optional)")
	timings := fs.Bool("timings", false, "print the per-stage timing breakdown (answer cache, invariant, evaluation)")
	fs.Parse(args)

	if *q == "" {
		log.Fatal("ask: -q is required (a sentence like 'exists u . in(P, u)')")
	}
	inst := readInstance("ask", *in, *workloadName, *scale)

	parsed, err := topoinv.ParseQuery(*q)
	if err != nil {
		fatalQueryError(*q, err)
	}
	if err := parsed.CheckSchema(inst.Schema()); err != nil {
		fatalQueryError(*q, err)
	}
	strat, err := parseStrategy(*strategy)
	if err != nil {
		log.Fatal(err)
	}

	var opts []topoinv.EngineOption
	if *storeDir != "" {
		opts = append(opts, topoinv.WithStore(*storeDir))
	}
	engine := topoinv.NewEngine(opts...)
	if err := engine.StoreErr(); err != nil {
		log.Fatal(err)
	}
	defer engine.Close()

	// The span recorder stays nil unless -timings asked for the breakdown;
	// the disabled path costs the engine one nil test per stage.
	var span *topoinv.Span
	if *timings {
		span = topoinv.StartSpan("ask")
	}
	res := engine.Do(topoinv.BatchRequest{
		Instance: inst, Query: parsed.Formula,
		Strategy: strat, StrategySet: true, Span: span,
	}, strat)
	span.End()
	if res.Err != nil {
		log.Fatalf("ask: %v", res.Err)
	}
	fmt.Printf("canonical: %s\n", res.Canonical)
	fmt.Printf("answer:    %v\n", res.Answer)
	fmt.Printf("strategy:  %s\n", res.Strategy)
	fmt.Printf("latency:   %s\n", res.Latency)
	st := engine.Stats()
	fmt.Printf("cache:     invariant hit=%v store_hits=%d computes=%d\n", res.CacheHit, st.StoreHits, st.Computes)
	if *timings {
		fmt.Printf("timings:   %s\n", span)
	}
}

// fatalQueryError prints a structured query error with a caret marking the
// byte offset in the source, then exits.
func fatalQueryError(src string, err error) {
	var qe *topoinv.QueryError
	if errors.As(err, &qe) && qe.Offset <= len(src) {
		fmt.Fprintf(os.Stderr, "ask: %s\n  %s\n  %s^\n", qe.Msg, src, strings.Repeat(" ", qe.Offset))
		os.Exit(1)
	}
	log.Fatalf("ask: %v", err)
}
