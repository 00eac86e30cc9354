package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"time"
)

// step is one HTTP request of an op, with the check its response must pass.
type step struct {
	method, path string
	body         []byte
	check        func(body []byte) error
}

// op is one unit of client work: its steps run back to back on one
// connection, and its latency spans all of them. The label names the op's
// cost class in the per-op latency record.
type op struct {
	label string
	steps []step
}

// client is the load generator's HTTP client: keep-alive connections to
// one server, at most conns of them.
type client struct {
	base string
	http *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request and returns the body of a 200 response.
func (c *client) do(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

func (c *client) run(o op) error {
	for _, s := range o.steps {
		body, err := c.do(s.method, s.path, s.body)
		if err != nil {
			return err
		}
		if s.check != nil {
			if err := s.check(body); err != nil {
				return fmt.Errorf("%s %s: %w", s.method, s.path, err)
			}
		}
	}
	return nil
}

// phaseResult is what a closed-loop phase measured.
type phaseResult struct {
	latencies []time.Duration // per op, in op order
	ends      []time.Duration // per op: completion, from the phase start
	errs      []error         // per op; nil when the op passed every check
	wall      time.Duration
}

func (p phaseResult) failed() int {
	n := 0
	for _, err := range p.errs {
		if err != nil {
			n++
		}
	}
	return n
}

func (p phaseResult) firstErr() error {
	for _, err := range p.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runClosedLoop executes the ops in order over conns connections, each
// sending its next op only after the previous one completed.
func runClosedLoop(c *client, ops []op, conns int) phaseResult {
	res := phaseResult{
		latencies: make([]time.Duration, len(ops)),
		ends:      make([]time.Duration, len(ops)),
		errs:      make([]error, len(ops)),
	}
	start := time.Now()
	// Each op records its own outcome, so no connection stops early.
	parallel(len(ops), conns, func(i int) error {
		t := time.Now()
		res.errs[i] = c.run(ops[i])
		end := time.Now()
		res.latencies[i] = end.Sub(t)
		res.ends[i] = end.Sub(start)
		return nil
	})
	res.wall = time.Since(start)
	return res
}

// then appends a phase that ran after p, as if they had run back to back.
func (p phaseResult) then(q phaseResult) phaseResult {
	for _, e := range q.ends {
		p.ends = append(p.ends, p.wall+e)
	}
	p.latencies = append(p.latencies, q.latencies...)
	p.errs = append(p.errs, q.errs...)
	p.wall += q.wall
	return p
}

// percentile returns the exact p-quantile (0 ≤ p ≤ 1) of the samples,
// interpolating linearly between the two nearest order statistics.
func percentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	h := p * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + time.Duration(math.Round((h-float64(lo))*float64(s[lo+1]-s[lo])))
}

func mean(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	var t time.Duration
	for _, d := range samples {
		t += d
	}
	return t / time.Duration(len(samples))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
