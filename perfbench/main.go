// Command perfbench is topoinv's serving benchmark. It spawns a real
// `topoinv serve` process, drives one workload against it in a closed loop
// of one connection per CPU, checks every response against answers computed
// in-process, and prints the metrics as the last line of its output:
//
//	perfbench -server <topoinv binary> -work <dir> -root <checkout> \
//	    --workload ask-repeat --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones BENCHMARK.json lists;
// with --trace 1 they are the per-layer ones: /metrics deltas over the same
// measured phase plus an in-process traced replay of the workload's op
// sequence (see replay.go). Tracing is never on while end-to-end metrics are
// measured. perfbench/run.sh builds both binaries and supplies the paths.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupRepeats is how many times a --trace 0 run sets the server up;
// setup_s is the median.
const setupRepeats = 5

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int // 0: end-to-end metrics, 1: per-layer metrics
	server   string
	work     string
	root     string
	conns    int
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, " | "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.IntVar(&cfg.seconds, "seconds", 10, "nominal measured seconds; the op count is a fixed rate times this")
	flag.IntVar(&cfg.trace, "trace", 0, "0 prints end-to-end metrics, 1 per-layer metrics")
	flag.StringVar(&cfg.server, "server", "", "topoinv binary to spawn")
	flag.StringVar(&cfg.work, "work", "", "directory for stores, logs and run records")
	flag.StringVar(&cfg.root, "root", ".", "checkout the binaries were built from (recorded, never written)")
	flag.Parse()
	cfg.conns = runtime.NumCPU()
	if err := cfg.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func (c config) validate() error {
	if _, ok := opsPerSecond[c.workload]; !ok {
		return fmt.Errorf("unknown workload %q (want %s)", c.workload, strings.Join(workloads, " | "))
	}
	if c.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if c.trace != 0 && c.trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if c.server == "" || c.work == "" {
		return fmt.Errorf("-server and -work are required (perfbench/run.sh supplies them)")
	}
	return nil
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples behind it, printed in the report
}

// outcome is the last line of the output.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(cfg config) error {
	dir := filepath.Join(cfg.work, fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, cfg.trace))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	p, err := newPlan(cfg.workload, cfg.seed, cfg.seconds)
	if err != nil {
		return err
	}
	if err := computeExpected(p, cfg.conns); err != nil {
		return fmt.Errorf("computing expected answers: %w", err)
	}
	refs := newReferences()
	ops := p.measuredOps(refs)

	repeats := setupRepeats
	if cfg.trace == 1 {
		repeats = 1
	}
	var setups []time.Duration
	var sr *setupResult
	for k := 0; k < repeats; k++ {
		if sr != nil {
			if err := sr.srv.stop(); err != nil {
				return fmt.Errorf("stopping set-up %d: %w", k, err)
			}
			os.RemoveAll(sr.storeDir)
		}
		if sr, err = runSetup(p, cfg.server, filepath.Join(dir, fmt.Sprint("setup", k)), cfg.conns, refs); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, sr.elapsed)
	}

	split := len(ops)
	if cfg.trace == 1 {
		split = min(split, numOps(cfg.workload, replaySeconds))
	}
	m, err := measure(sr.srv, ops, cfg.conns, split)
	stopErr := sr.srv.stop()
	if err != nil {
		return err
	}
	if stopErr != nil {
		return fmt.Errorf("stopping the server: %w", stopErr)
	}
	m.setups = setups
	m.setupStoreBytes, m.setupDocBytes = sr.storeBytes, sr.docBytes
	for _, o := range p.maps {
		m.opDocBytes += float64(o.doc.bytes)
	}

	out := outcome{Attempted: len(ops), Failed: m.phase.failed(), Metrics: map[string]metric{}}
	problems := propertyChecks(p, m)
	if err := m.phase.firstErr(); err != nil {
		problems = append(problems, fmt.Sprintf("%d failed ops, first: %v", out.Failed, err))
	}
	endToEnd := m.endToEnd(p)
	layers := m.scrapeLayers(p)
	if cfg.trace == 1 {
		tr, err := replay(p, refs, m, sr.storeDir, dir)
		if err != nil {
			return fmt.Errorf("traced replay: %w", err)
		}
		for k, v := range tr.metrics {
			layers[k] = v
		}
		problems = append(problems, tr.problems...)
		out.Metrics = layers
	} else {
		out.Metrics = endToEnd
	}
	out.Correct = len(problems) == 0

	env := captureEnv(cfg, m.steal)
	fmt.Printf("perfbench %s: seed %d, %d ops over %d connections\n", cfg.workload, cfg.seed, len(ops), cfg.conns)
	envJSON, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envJSON)
	printMetrics(out.Metrics)
	for _, pr := range problems {
		fmt.Printf("problem: %s\n", pr)
	}
	record := map[string]any{"env": env, "outcome": out, "end_to_end": endToEnd, "per_layer": layers, "problems": problems}
	if data, err := json.MarshalIndent(record, "", "  "); err == nil {
		os.WriteFile(filepath.Join(dir, "result.json"), data, 0o644)
	}
	writeLatencies(filepath.Join(dir, "latencies.tsv"), ops, m.phase)
	// Stores are large and each run starts from a fresh one.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if e.IsDir() {
			os.RemoveAll(filepath.Join(dir, e.Name()))
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// writeLatencies keeps the per-op samples of the run, so a percentile can
// be traced to the ops behind it.
func writeLatencies(path string, ops []op, ph phaseResult) {
	var b strings.Builder
	b.WriteString("op\tlabel\tlatency_us\tend_ms\tok\n")
	for i, d := range ph.latencies {
		fmt.Fprintf(&b, "%d\t%s\t%.1f\t%.3f\t%v\n", i, ops[i].label, float64(d)/1e3, ms(ph.ends[i]), ph.errs[i] == nil)
	}
	os.WriteFile(path, []byte(b.String()), 0o644)
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := ms[k]
		fmt.Printf("metric %-32s %14.6g %-6s (n=%d)\n", k, v.Value, v.Unit, v.n)
	}
}

// --- environment ---------------------------------------------------------------

type environment struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	SourceHash string  `json:"source_sha256"`
	StealPct   float64 `json:"host_steal_pct"`
	Time       string  `json:"time"`
}

func captureEnv(cfg config, steal float64) environment {
	return environment{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(cfg.root),
		SourceHash: sourceHash(cfg.root),
		StealPct:   steal,
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}

// commit is the checkout's git HEAD, or "none" outside a git work tree.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests go.mod and every .go file outside the benchmark, so
// runs of a checkout without git history still name the code they measured.
func sourceHash(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if rel == "go.mod" || strings.HasSuffix(rel, ".go") {
			data, err := os.ReadFile(path)
			if err == nil {
				fmt.Fprintf(h, "%s %d\n", rel, len(data))
				h.Write(data)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}
