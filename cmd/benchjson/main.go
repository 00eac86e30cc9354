// Command benchjson converts `go test -bench` text output into a JSON
// report, so CI can archive benchmark results as BENCH_*.json artifacts and
// the asymptotic claims pinned by the benchmarks (e.g. quadratic-vs-sweep
// import validation) stay comparable across commits.
//
//	go test -run='^$' -bench=. -benchtime=1x ./... | benchjson -o BENCH_ci.json
//
// Each benchmark line
//
//	BenchmarkImportValidation/sweep/10000v-8   3   40563681 ns/op   12 extra/op
//
// becomes
//
//	{"name":"ImportValidation/sweep/10000v","procs":8,"iterations":3,
//	 "ns_per_op":40563681,"metrics":{"extra/op":12}}
//
// go test appends the GOMAXPROCS suffix "-8" to every benchmark name when
// GOMAXPROCS > 1 and to none when it is 1, so a trailing "-N" is read as
// procs only when every benchmark line of its pkg: block carries the same
// one; otherwise it is part of the name (EngineBatch/workers-4).
//
// Non-benchmark lines (pkg headers, PASS/ok) pass through into the report's
// "context" list, preserving goos/goarch/cpu provenance.
//
// `go test -count N` prints each benchmark N times in a row.  The repeats of
// one (pkg, name, procs) fold into one result: "runs" counts them,
// "iterations" sums theirs, "ns_per_op" and every metric are medians over
// the runs, and "ns_per_op_min" and "ns_per_op_max" give ns_per_op's range.
// A benchmark printed once keeps the single-run form above.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strconv"
	"strings"
)

type benchResult struct {
	Name       string             `json:"name"`
	Procs      int                `json:"procs,omitempty"`
	Iterations int64              `json:"iterations"`
	Runs       int                `json:"runs,omitempty"`
	NsPerOp    float64            `json:"ns_per_op,omitempty"`
	NsPerOpMin float64            `json:"ns_per_op_min,omitempty"`
	NsPerOpMax float64            `json:"ns_per_op_max,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

type report struct {
	Context []string      `json:"context,omitempty"`
	Results []benchResult `json:"results"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	rep, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		log.Fatal(err)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		if _, err := os.Stdout.Write(data); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d results to %s\n", len(rep.Results), *out)
}

func parse(sc *bufio.Scanner) (*report, error) {
	rep := &report{}
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var block []benchResult // the current pkg: block, names unsplit
	flush := func() {
		rep.Results = append(rep.Results, splitProcs(fold(block))...)
		block = nil
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || line == "PASS" || strings.HasPrefix(line, "ok "):
		case strings.HasPrefix(line, "goos:") || strings.HasPrefix(line, "goarch:") ||
			strings.HasPrefix(line, "pkg:") || strings.HasPrefix(line, "cpu:"):
			if strings.HasPrefix(line, "pkg:") {
				flush()
			}
			rep.Context = append(rep.Context, line)
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseBenchLine(line); ok {
				block = append(block, r)
			}
		}
	}
	flush()
	return rep, sc.Err()
}

// fold merges each run of consecutive results with one name in a pkg:
// block, as the package comment describes.
func fold(block []benchResult) []benchResult {
	var out []benchResult
	for len(block) > 0 {
		n := 1
		for n < len(block) && block[n].Name == block[0].Name {
			n++
		}
		f := block[0]
		if n > 1 {
			f = benchResult{Name: f.Name, Runs: n, Metrics: map[string]float64{}}
			ns, metrics := make([]float64, n), map[string][]float64{}
			for i, r := range block[:n] {
				f.Iterations += r.Iterations
				ns[i] = r.NsPerOp
				for unit, v := range r.Metrics {
					metrics[unit] = append(metrics[unit], v)
				}
			}
			f.NsPerOp, f.NsPerOpMin, f.NsPerOpMax = median(ns), slices.Min(ns), slices.Max(ns)
			for unit, vs := range metrics {
				f.Metrics[unit] = median(vs)
			}
		}
		out = append(out, f)
		block = block[n:]
	}
	return out
}

// median returns the middle value of vs, or the mean of the middle two; it
// sorts vs.
func median(vs []float64) float64 {
	slices.Sort(vs)
	return (vs[(len(vs)-1)/2] + vs[len(vs)/2]) / 2
}

// splitProcs moves the GOMAXPROCS suffix of one pkg: block's names into
// Procs, provided every name in the block ends in the same "-N".
func splitProcs(block []benchResult) []benchResult {
	procs := 0
	for _, r := range block {
		p := procsSuffix(r.Name)
		if p == 0 || (procs != 0 && p != procs) {
			return block
		}
		procs = p
	}
	for i := range block {
		block[i].Name = block[i].Name[:strings.LastIndexByte(block[i].Name, '-')]
		block[i].Procs = procs
	}
	return block
}

// procsSuffix returns N for a name ending in "-N" (N ≥ 1), else 0.
func procsSuffix(name string) int {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return 0
	}
	p, err := strconv.Atoi(name[i+1:])
	if err != nil || p < 1 {
		return 0
	}
	return p
}

// parseBenchLine parses one benchmark result line.  The shape is
// "BenchmarkName[-procs] N [value unit]..." with whitespace-separated
// fields; unparsable lines are skipped rather than failing the report.
// The name keeps any "-procs" suffix; parse splits it off per block.
func parseBenchLine(line string) (benchResult, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return benchResult{}, false
	}
	r := benchResult{Name: strings.TrimPrefix(fields[0], "Benchmark")}
	n, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchResult{}, false
	}
	r.Iterations = n
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			r.NsPerOp = v
			continue
		}
		if r.Metrics == nil {
			r.Metrics = map[string]float64{}
		}
		r.Metrics[unit] = v
	}
	return r, true
}
