package main

import (
	"bufio"
	"encoding/json"
	"strings"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: repro/internal/sweep
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkImportValidation/quadratic/1000v-8         	       3	  71879190 ns/op
BenchmarkImportValidation/sweep/10000v-8            	       3	  40563681 ns/op
BenchmarkE1LandUseCompression-8                     	       1	 500000000 ns/op	        91.50 raw/inv
PASS
ok  	repro/internal/sweep	34.532s
pkg: repro
BenchmarkEngineInvariant/cached                     	       1	       740 ns/op
BenchmarkEngineBatch/workers-1                      	       1	   4868247 ns/op	     13146 queries/sec
BenchmarkEngineBatch/workers-4                      	       1	   4375726 ns/op	     14626 queries/sec
BenchmarkEngineBatch/workers-1#01                   	       1	   4449167 ns/op	     14384 queries/sec
PASS
ok  	repro	1.204s
`
	rep, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Context) != 5 {
		t.Errorf("context lines = %d, want 5", len(rep.Context))
	}
	if len(rep.Results) != 7 {
		t.Fatalf("results = %d, want 7", len(rep.Results))
	}
	// The second block is a GOMAXPROCS=1 run: go test adds no suffix, so
	// the "-1" and "-4" belong to the sub-benchmark names.
	for i, want := range []string{"EngineInvariant/cached", "EngineBatch/workers-1", "EngineBatch/workers-4", "EngineBatch/workers-1#01"} {
		if r := rep.Results[3+i]; r.Name != want || r.Procs != 0 {
			t.Errorf("GOMAXPROCS=1 result %d parsed as %+v, want name %q and no procs", i, r, want)
		}
	}
	r := rep.Results[0]
	if r.Name != "ImportValidation/quadratic/1000v" || r.Procs != 8 || r.Iterations != 3 || r.NsPerOp != 71879190 {
		t.Errorf("first result parsed as %+v", r)
	}
	if got := rep.Results[2].Metrics["raw/inv"]; got != 91.5 {
		t.Errorf("custom metric = %v, want 91.5", got)
	}
	if rep.Results[2].Name != "E1LandUseCompression" {
		t.Errorf("name = %q", rep.Results[2].Name)
	}
}

func TestParseSkipsGarbage(t *testing.T) {
	in := "Benchmark\nBenchmarkX-4 notanumber\nrandom line\n"
	rep, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 0 {
		t.Errorf("garbage produced %d results", len(rep.Results))
	}
}

// TestFoldRepeats: the three repeats `go test -count 3` prints of each
// benchmark fold into one result per (pkg, name, procs), with medians, the
// ns/op range and the run count; a benchmark printed once, and the same
// name in another package, stay as they are.
func TestFoldRepeats(t *testing.T) {
	in := `pkg: repro
BenchmarkColdIngest-2   	       8	  14000000 ns/op	        13.50 cpu-ms/map	 4000000 B/op	   35000 allocs/op
BenchmarkColdIngest-2   	       8	  12000000 ns/op	        12.90 cpu-ms/map	 3900000 B/op	   34900 allocs/op
BenchmarkColdIngest-2   	       8	  16000000 ns/op	        14.10 cpu-ms/map	 4100000 B/op	   35100 allocs/op
BenchmarkOnce-2         	       1	       500 ns/op
PASS
ok  	repro	1.204s
pkg: repro/internal/sweep
BenchmarkColdIngest-2   	       1	       700 ns/op
`
	rep, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 3 {
		t.Fatalf("results = %d, want 3: %+v", len(rep.Results), rep.Results)
	}
	got, err := json.Marshal(rep.Results)
	if err != nil {
		t.Fatal(err)
	}
	want := `[{"name":"ColdIngest","procs":2,"iterations":24,"runs":3,"ns_per_op":14000000,"ns_per_op_min":12000000,"ns_per_op_max":16000000,` +
		`"metrics":{"B/op":4000000,"allocs/op":35000,"cpu-ms/map":13.5}},` +
		`{"name":"Once","procs":2,"iterations":1,"ns_per_op":500},` +
		`{"name":"ColdIngest","procs":2,"iterations":1,"ns_per_op":700}]`
	if string(got) != want {
		t.Errorf("folded results:\n got %s\nwant %s", got, want)
	}
}
