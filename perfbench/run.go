package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/queryl"
	"repro/internal/simindex"
	"repro/internal/spatial"
)

// computeExpected answers every question of the plan in-process with
// core.Open(inst).Ask(q, Direct), one database per instance, spread over
// workers goroutines. It runs before the server is spawned.
func computeExpected(p *plan, workers int) error {
	byInst := map[*spatial.Instance][]*askItem{}
	var order []*spatial.Instance
	for _, a := range p.allAsks() {
		if _, ok := byInst[a.inst]; !ok {
			order = append(order, a.inst)
		}
		byInst[a.inst] = append(byInst[a.inst], a)
	}
	return parallel(len(order), workers, func(i int) error { return answerAll(order[i], byInst[order[i]]) })
}

func answerAll(inst *spatial.Instance, asks []*askItem) error {
	db, err := core.Open(inst)
	if err != nil {
		return err
	}
	for _, a := range asks {
		src, err := a.source()
		if err != nil {
			return err
		}
		q, err := queryl.Parse(src)
		if err != nil {
			return fmt.Errorf("%s: %w", src, err)
		}
		if err := q.CheckSchema(inst.Schema()); err != nil {
			return fmt.Errorf("%s: %w", src, err)
		}
		if a.want, err = db.Ask(q.Formula, core.Direct); err != nil {
			return fmt.Errorf("%s: %w", src, err)
		}
	}
	return nil
}

// --- response checks ---------------------------------------------------------

type askResponse struct {
	Answer   bool   `json:"answer"`
	Strategy string `json:"strategy"`
}

type similarResponse struct {
	ID      string           `json:"id"`
	Matches []simindex.Match `json:"matches"`
}

// checkAnswer accepts an ask response carrying the expected answer and,
// when strategy is non-empty, resolved to that strategy.
func checkAnswer(want bool, strategy string) func([]byte) error {
	return func(body []byte) error {
		var r askResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.Answer != want {
			return fmt.Errorf("answer %v, want %v", r.Answer, want)
		}
		if strategy != "" && r.Strategy != strategy {
			return fmt.Errorf("answered by %s, want %s", r.Strategy, strategy)
		}
		return nil
	}
}

func checkLoaded(id string) func([]byte) error {
	return func(body []byte) error {
		var r struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.ID != id {
			return fmt.Errorf("instance id %s, want %s", r.ID, id)
		}
		return nil
	}
}

// checkSimilar accepts a similarity response for id whose matches are
// exactly want, or (want == nil) number exactly similarK.
func checkSimilar(id string, want func() []simindex.Match) func([]byte) error {
	return func(body []byte) error {
		var r similarResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.ID != id {
			return fmt.Errorf("similar id %s, want %s", r.ID, id)
		}
		if want == nil {
			if len(r.Matches) != similarK {
				return fmt.Errorf("%d matches, want %d", len(r.Matches), similarK)
			}
			return nil
		}
		if w := want(); !reflect.DeepEqual(r.Matches, w) {
			return fmt.Errorf("matches %v, want %v as before the restart", r.Matches, w)
		}
		return nil
	}
}

func similarPath(id string) string {
	return fmt.Sprintf("/v1/instances/%s/similar?k=%d", id, similarK)
}

func loadStep(d doc) step {
	return step{method: "POST", path: "/v1/instances", body: d.body, check: checkLoaded(d.id)}
}

func askStep(a askItem, strategy string) step {
	return step{method: "POST", path: "/v1/ask", body: a.body(), check: checkAnswer(a.want, strategy)}
}

// references holds reopen's similarity rankings from before the restart.
type references struct {
	mu sync.Mutex
	m  map[string][]simindex.Match
}

func newReferences() *references {
	return &references{m: map[string][]simindex.Match{}}
}

func (r *references) get(id string) []simindex.Match {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m[id]
}

func (r *references) set(id string, ms []simindex.Match) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m[id] = ms
}

// measuredOps builds the measured phase's ops, bodies marshalled up front.
func (p *plan) measuredOps(refs *references) []op {
	var ops []op
	switch p.workload {
	case "ask-repeat":
		steps := make([]step, len(p.pool))
		for i, a := range p.pool {
			steps[i] = askStep(a, "")
		}
		for _, i := range p.seq {
			ops = append(ops, op{p.pool[i].label, steps[i : i+1]})
		}
	case "ask-fresh":
		for _, a := range p.asks {
			ops = append(ops, op{a.label, []step{askStep(a, "")}})
		}
	case "ingest":
		for _, m := range p.maps {
			ops = append(ops, op{m.ask.label, []step{
				loadStep(m.doc),
				askStep(m.ask, ""),
				{method: "GET", path: similarPath(m.doc.id), check: checkSimilar(m.doc.id, nil)},
			}})
		}
	case "reopen":
		for i, a := range p.asks {
			id := p.corpus[p.cycle[i]].id
			ops = append(ops, op{a.label, []step{
				{method: "GET", path: similarPath(id), check: checkSimilar(id, func() []simindex.Match { return refs.get(id) })},
				askStep(a, "via-invariant-fixpoint"),
			}})
		}
	}
	return ops
}

// --- set-up ------------------------------------------------------------------

// parallel runs f(0..n-1) in index order over workers goroutines; a
// goroutine stops at its first error, which parallel returns.
func parallel(n, workers int, f func(i int) error) error {
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || errs[w] != nil {
					return
				}
				errs[w] = f(i)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sendAll runs single-step ops over conns connections, failing on the first
// error.
func sendAll(c *client, steps []step, conns int) error {
	return parallel(len(steps), conns, func(i int) error { return c.run(op{steps: steps[i : i+1]}) })
}

// setupResult is one set-up's outcome.
type setupResult struct {
	srv      *server
	storeDir string
	elapsed  time.Duration // spawn to ready-for-the-first-op, minus reference fetches
	// storeBytes and docBytes cover the set-up pass that first ingests the
	// corpus: store bytes written and instance-document bytes posted.
	storeBytes, docBytes float64
}

// runSetup spawns a server over a fresh store in dir and brings it to the
// state the measured phase starts from.
func runSetup(p *plan, bin, dir string, conns int, refs *references) (*setupResult, error) {
	storeDir := filepath.Join(dir, "store")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logPath := filepath.Join(dir, "server.log")
	start := time.Now()
	var paused time.Duration
	srv, err := startServer(bin, storeDir, logPath)
	if err != nil {
		return nil, err
	}
	res := &setupResult{srv: srv, storeDir: storeDir}
	fail := func(err error) (*setupResult, error) {
		srv.stop()
		return nil, err
	}
	c := newClient(srv.base, conns)
	defer func() { c.close() }()
	var loads, primes []step
	for _, d := range p.corpus {
		loads = append(loads, loadStep(d))
		res.docBytes += float64(d.bytes)
	}
	for _, a := range p.prime {
		primes = append(primes, askStep(a, ""))
	}
	if err := sendAll(c, loads, conns); err != nil {
		return fail(fmt.Errorf("posting the corpus: %w", err))
	}
	if err := sendAll(c, primes, conns); err != nil {
		return fail(fmt.Errorf("priming: %w", err))
	}
	if p.restart {
		// Build the store: compute every invariant, then record each cycle
		// instance's ranking (checking work, kept off the clock).
		var builds []step
		for _, d := range p.corpus {
			builds = append(builds, step{method: "GET", path: "/v1/instances/" + d.id + "/invariant"})
		}
		if err := sendAll(c, builds, conns); err != nil {
			return fail(fmt.Errorf("building the store: %w", err))
		}
		t := time.Now()
		stored := reopenFactor * invariantCache
		err := parallel(stored, conns, func(i int) error {
			id := p.corpus[i].id
			body, err := c.do("GET", similarPath(id), nil)
			if err != nil {
				return err
			}
			var r similarResponse
			if err := json.Unmarshal(body, &r); err != nil {
				return err
			}
			refs.set(id, r.Matches)
			return nil
		})
		paused += time.Since(t)
		if err != nil {
			return fail(fmt.Errorf("recording rankings: %w", err))
		}
	}
	t := time.Now()
	m, err := srv.scrape()
	paused += time.Since(t)
	if err != nil {
		return fail(err)
	}
	res.storeBytes = m.sum("topoinv_store_bytes_written_total")
	if p.restart {
		if err := srv.stop(); err != nil {
			return nil, fmt.Errorf("stopping the store-building server: %w", err)
		}
		c.close()
		if srv, err = startServer(bin, storeDir, logPath); err != nil {
			return nil, err
		}
		res.srv = srv
		c = newClient(srv.base, conns)
		if err := sendAll(c, loads, conns); err != nil {
			return fail(fmt.Errorf("re-posting after the restart: %w", err))
		}
		var warm []step
		for _, a := range p.warm {
			warm = append(warm, askStep(a, "via-invariant-fixpoint"))
		}
		if err := sendAll(c, warm, conns); err != nil {
			return fail(fmt.Errorf("warming up after the restart: %w", err))
		}
	}
	res.elapsed = time.Since(start) - paused
	return res, nil
}
