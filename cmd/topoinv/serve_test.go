package main

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/topoinv"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(newServer(topoinv.NewEngine()).routes())
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func TestServeWorkflow(t *testing.T) {
	ts := testServer(t)

	// Load a generated workload.
	var loaded loadResponse
	if resp := postJSON(t, ts.URL+"/v1/instances", loadRequest{Workload: "nested", Scale: 2}, &loaded); resp.StatusCode != http.StatusOK {
		t.Fatalf("load: status %d", resp.StatusCode)
	}
	if loaded.ID == "" || loaded.Points == 0 {
		t.Fatalf("load: bad response %+v", loaded)
	}

	// First invariant fetch computes, second is served from the cache.
	var inv1, inv2 invariantResponse
	getJSON(t, fmt.Sprintf("%s/v1/instances/%s/invariant", ts.URL, loaded.ID), &inv1)
	getJSON(t, fmt.Sprintf("%s/v1/instances/%s/invariant", ts.URL, loaded.ID), &inv2)
	if inv1.Cached {
		t.Error("first invariant fetch reported a cache hit")
	}
	if !inv2.Cached {
		t.Error("second invariant fetch missed the cache")
	}
	if inv1.Cells == 0 || inv1.Cells != inv2.Cells {
		t.Errorf("cell counts %d vs %d", inv1.Cells, inv2.Cells)
	}

	// The binary export decodes back to a valid invariant.
	var withData invariantResponse
	getJSON(t, fmt.Sprintf("%s/v1/instances/%s/invariant?format=binary", ts.URL, loaded.ID), &withData)
	raw, err := base64.StdEncoding.DecodeString(withData.Data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topoinv.DecodeInvariant(raw); err != nil {
		t.Fatalf("exported invariant blob does not decode: %v", err)
	}

	// Ask a single query.
	var ans askResponse
	if resp := postJSON(t, ts.URL+"/v1/ask", askRequest{ID: loaded.ID, Query: "nonempty", Regions: []string{"P"}, Strategy: "fixpoint"}, &ans); resp.StatusCode != http.StatusOK {
		t.Fatalf("ask: status %d", resp.StatusCode)
	}
	if !ans.Answer || !ans.CacheHit {
		t.Errorf("ask: %+v, want answer=true cache_hit=true", ans)
	}

	// Batch over the worker pool.
	var batch []batchItemResponse
	breq := batchRequest{Strategy: "fixpoint"}
	for i := 0; i < 8; i++ {
		breq.Requests = append(breq.Requests, askRequest{ID: loaded.ID, Query: "hasinterior", Regions: []string{"P"}})
	}
	if resp := postJSON(t, ts.URL+"/v1/batch", breq, &batch); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d", resp.StatusCode)
	}
	if len(batch) != 8 {
		t.Fatalf("batch: %d results", len(batch))
	}
	for i, r := range batch {
		if r.Error != "" || !r.Answer {
			t.Errorf("batch item %d: %+v", i, r)
		}
	}

	// Stats reflect the traffic.
	var st topoinv.EngineStats
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.CacheHits == 0 || st.CacheMisses == 0 {
		t.Errorf("stats: %+v, want nonzero hits and misses", st)
	}
	if len(st.Strategies) == 0 {
		t.Error("stats: no per-strategy counters")
	}
}

func TestServeLoadEncodedInstance(t *testing.T) {
	ts := testServer(t)
	inst, err := topoinv.NestedRegions(2)
	if err != nil {
		t.Fatal(err)
	}
	data, err := topoinv.Encode(inst)
	if err != nil {
		t.Fatal(err)
	}
	var loaded loadResponse
	if resp := postJSON(t, ts.URL+"/v1/instances", loadRequest{Data: base64.StdEncoding.EncodeToString(data)}, &loaded); resp.StatusCode != http.StatusOK {
		t.Fatalf("load: status %d", resp.StatusCode)
	}
	want, err := topoinv.InstanceKey(inst)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.ID != want {
		t.Errorf("content address %s, want %s", loaded.ID, want)
	}
}

// areaBlob hand-encodes, per the codec wire format (see package codec), a
// one-region instance "P" holding a single area feature with integer
// vertices.  topoinv.Encode needs a valid instance; this does not, so it can
// produce well-formed bytes that describe invalid geometry.
func areaBlob(outer [][2]int64, holes ...[][2]int64) string {
	b := []byte("TINV\x01\x01")    // magic, version 1, instance payload
	b = append(b, 1, 1, 'P', 1, 2) // one region name "P"; one feature, an area
	ring := func(pts [][2]int64) {
		b = binary.AppendUvarint(b, uint64(len(pts)))
		for _, p := range pts {
			for _, c := range p {
				b = append(b, 0) // int64 rational: numerator, then denominator 1
				b = binary.AppendVarint(b, c)
				b = binary.AppendUvarint(b, 1)
			}
		}
	}
	ring(outer)
	b = binary.AppendUvarint(b, uint64(len(holes)))
	for _, h := range holes {
		ring(h)
	}
	return base64.StdEncoding.EncodeToString(b)
}

// TestServeRejectsInvalidEncodedInstance: a base64 blob that decodes cleanly
// but describes invalid geometry is refused with a 400, because decoding
// hands every region to the instance's one validation gate.
func TestServeRejectsInvalidEncodedInstance(t *testing.T) {
	ts := testServer(t)
	square := [][2]int64{{0, 0}, {8, 0}, {8, 8}, {0, 8}}
	cases := []struct {
		name string
		data string
		want int
	}{
		{"valid square", areaBlob(square), http.StatusOK},
		{"bowtie", areaBlob([][2]int64{{0, 0}, {5, 0}, {5, 5}, {1, -1}}), http.StatusBadRequest},
		{"hole touches outer ring", areaBlob(square, [][2]int64{{0, 0}, {3, 1}, {1, 3}}), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if resp := postJSON(t, ts.URL+"/v1/instances", loadRequest{Data: tc.data}, nil); resp.StatusCode != tc.want {
				t.Errorf("status %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}
}

func TestServeUnload(t *testing.T) {
	ts := testServer(t)
	var loaded loadResponse
	postJSON(t, ts.URL+"/v1/instances", loadRequest{Workload: "nested", Scale: 1}, &loaded)

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/instances/"+loaded.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	if resp2 := getJSON(t, ts.URL+"/v1/instances/"+loaded.ID+"/invariant", nil); resp2.StatusCode != http.StatusNotFound {
		t.Errorf("deleted instance still served: status %d", resp2.StatusCode)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("double delete: status %d, want 404", resp.StatusCode)
	}
}

// TestServeBadRegionName checks that a query against a region the instance
// does not have is rejected by the schema check before any evaluation —
// a structured 400 with the source offset — and that a batch keeps running
// around the bad item.
func TestServeBadRegionName(t *testing.T) {
	ts := testServer(t)
	var loaded loadResponse
	postJSON(t, ts.URL+"/v1/instances", loadRequest{Workload: "nested", Scale: 1}, &loaded)
	if resp := postJSON(t, ts.URL+"/v1/ask", askRequest{ID: loaded.ID, Query: "nonempty", Regions: []string{"Z"}}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown region ask: status %d, want 400", resp.StatusCode)
	}
	var batch []batchItemResponse
	breq := batchRequest{Requests: []askRequest{
		{ID: loaded.ID, Query: "nonempty", Regions: []string{"Z"}},
		{ID: loaded.ID, Query: "nonempty", Regions: []string{"P"}},
	}}
	if resp := postJSON(t, ts.URL+"/v1/batch", breq, &batch); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d", resp.StatusCode)
	}
	if len(batch) != 2 || batch[0].Error == "" {
		t.Fatalf("batch with unknown region: %+v, want per-item error", batch)
	}
	if batch[1].Error != "" || !batch[1].Answer {
		t.Errorf("valid item alongside a rejected one: %+v", batch[1])
	}
}

func TestServeErrors(t *testing.T) {
	ts := testServer(t)
	if resp := postJSON(t, ts.URL+"/v1/instances", loadRequest{}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty load: status %d, want 400", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/v1/instances", loadRequest{Workload: "nope"}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown workload: status %d, want 400", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/instances/deadbeef/invariant", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want 404", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/v1/ask", askRequest{ID: "deadbeef", Query: "nonempty", Regions: []string{"P"}}, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("ask unknown id: status %d, want 404", resp.StatusCode)
	}

	var loaded loadResponse
	postJSON(t, ts.URL+"/v1/instances", loadRequest{Workload: "nested", Scale: 1}, &loaded)
	if resp := postJSON(t, ts.URL+"/v1/ask", askRequest{ID: loaded.ID, Query: "nope", Regions: []string{"P"}}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown query: status %d, want 400", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/v1/ask", askRequest{ID: loaded.ID, Query: "intersects", Regions: []string{"P"}}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("arity mismatch: status %d, want 400", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/v1/ask", askRequest{ID: loaded.ID, Query: "nonempty", Regions: []string{"P"}, Strategy: "nope"}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown strategy: status %d, want 400", resp.StatusCode)
	}
}

// TestServeAutoStrategy: the "auto" strategy is accepted by ask and batch,
// resolves per instance (fixpoint on invertible invariants, direct fallback
// on junction-vertex workloads), reports the resolved strategy in the
// response, and surfaces the fallback counters in /v1/stats.
func TestServeAutoStrategy(t *testing.T) {
	ts := testServer(t)

	var nestedInst, landuseInst loadResponse
	if resp := postJSON(t, ts.URL+"/v1/instances", loadRequest{Workload: "nested", Scale: 1}, &nestedInst); resp.StatusCode != http.StatusOK {
		t.Fatalf("load nested: status %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/v1/instances", loadRequest{Workload: "landuse", Scale: 1}, &landuseInst); resp.StatusCode != http.StatusOK {
		t.Fatalf("load landuse: status %d", resp.StatusCode)
	}

	var ans askResponse
	if resp := postJSON(t, ts.URL+"/v1/ask", askRequest{ID: nestedInst.ID, Query: "nonempty", Regions: []string{"P"}, Strategy: "auto"}, &ans); resp.StatusCode != http.StatusOK {
		t.Fatalf("auto ask (nested): status %d", resp.StatusCode)
	}
	if ans.Strategy != "via-invariant-fixpoint" {
		t.Errorf("nested auto strategy = %q, want via-invariant-fixpoint", ans.Strategy)
	}
	if resp := postJSON(t, ts.URL+"/v1/ask", askRequest{ID: landuseInst.ID, Query: "nonempty", Regions: []string{"class00"}, Strategy: "auto"}, &ans); resp.StatusCode != http.StatusOK {
		t.Fatalf("auto ask (landuse): status %d", resp.StatusCode)
	}
	if ans.Strategy != "direct" {
		t.Errorf("landuse auto strategy = %q, want direct (fixpoint hard-errors on junction vertices)", ans.Strategy)
	}

	var batch []batchItemResponse
	breq := batchRequest{Strategy: "auto", Requests: []askRequest{
		{ID: nestedInst.ID, Query: "hasinterior", Regions: []string{"P"}},
		{ID: landuseInst.ID, Query: "intersects", Regions: []string{"class00", "class01"}},
	}}
	if resp := postJSON(t, ts.URL+"/v1/batch", breq, &batch); resp.StatusCode != http.StatusOK {
		t.Fatalf("auto batch: status %d", resp.StatusCode)
	}
	for i, r := range batch {
		if r.Error != "" {
			t.Errorf("batch item %d errored: %s", i, r.Error)
		}
	}
	if batch[0].Strategy != "via-invariant-fixpoint" || batch[1].Strategy != "direct" {
		t.Errorf("batch auto strategies = %q/%q, want fixpoint/direct", batch[0].Strategy, batch[1].Strategy)
	}

	var stats topoinv.EngineStats
	if resp := getJSON(t, ts.URL+"/v1/stats", &stats); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d", resp.StatusCode)
	}
	if stats.AutoQueries != 4 {
		t.Errorf("auto_queries = %d, want 4", stats.AutoQueries)
	}
	if stats.AutoFallbacks != 2 {
		t.Errorf("auto_fallbacks = %d, want 2", stats.AutoFallbacks)
	}
}

// TestServeFormula: an arbitrary user-written sentence is answerable over
// /v1/ask, the response carries the canonical form, a repeated identical ask
// is served from the answer cache, and the hit shows up in /v1/stats.
func TestServeFormula(t *testing.T) {
	ts := testServer(t)
	var loaded loadResponse
	if resp := postJSON(t, ts.URL+"/v1/instances", loadRequest{Workload: "nested", Scale: 2}, &loaded); resp.StatusCode != http.StatusOK {
		t.Fatalf("load: status %d", resp.StatusCode)
	}

	// Written with eccentric whitespace: the canonical form normalizes it.
	const formula = "forall  u .  in( P , u )  implies not interior( P ,  u )"
	const canonical = "forall u . in(P, u) implies not interior(P, u)"
	var ans askResponse
	if resp := postJSON(t, ts.URL+"/v1/ask", askRequest{ID: loaded.ID, Formula: formula, Strategy: "auto"}, &ans); resp.StatusCode != http.StatusOK {
		t.Fatalf("formula ask: status %d", resp.StatusCode)
	}
	if ans.Canonical != canonical {
		t.Errorf("canonical = %q, want %q", ans.Canonical, canonical)
	}
	if ans.AnswerHit {
		t.Error("first ask reported an answer hit")
	}

	// The same sentence again — and its canonical spelling — both hit the
	// answer cache.
	var again askResponse
	postJSON(t, ts.URL+"/v1/ask", askRequest{ID: loaded.ID, Formula: formula, Strategy: "auto"}, &again)
	if !again.AnswerHit || again.Answer != ans.Answer {
		t.Errorf("repeat ask: %+v, want answer_hit with the same answer", again)
	}
	postJSON(t, ts.URL+"/v1/ask", askRequest{ID: loaded.ID, Formula: canonical, Strategy: "auto"}, &again)
	if !again.AnswerHit {
		t.Error("canonical spelling missed the cache entry of its variant")
	}

	var st topoinv.EngineStats
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.AnswerHits < 2 {
		t.Errorf("stats answer_hits = %d, want >= 2", st.AnswerHits)
	}

	// The legacy name and its formula expansion share one answer entry.
	var legacy askResponse
	postJSON(t, ts.URL+"/v1/ask", askRequest{ID: loaded.ID, Query: "nonempty", Regions: []string{"P"}, Strategy: "auto"}, &legacy)
	var spelled askResponse
	postJSON(t, ts.URL+"/v1/ask", askRequest{ID: loaded.ID, Formula: "exists u . in(P, u)", Strategy: "auto"}, &spelled)
	if !spelled.AnswerHit {
		t.Error("spelled-out nonempty missed the legacy alias's answer entry")
	}
	if spelled.Canonical != legacy.Canonical {
		t.Errorf("canonical forms differ: %q vs %q", spelled.Canonical, legacy.Canonical)
	}
}

// TestServeFormulaErrors: structured parse/schema errors surface as 400 with
// the byte offset; both query forms at once, absent queries, and formulas
// beyond the quantifier-depth cap are rejected.
func TestServeFormulaErrors(t *testing.T) {
	ts := testServer(t)
	var loaded loadResponse
	postJSON(t, ts.URL+"/v1/instances", loadRequest{Workload: "nested", Scale: 1}, &loaded)

	post := func(body askRequest) (int, map[string]any) {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/ask", "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out
	}

	if code, out := post(askRequest{ID: loaded.ID, Formula: "exists u . in(P, u) and"}); code != http.StatusBadRequest {
		t.Errorf("parse error: status %d (%v), want 400", code, out)
	} else if off, ok := out["offset"].(float64); !ok || int(off) != 23 {
		t.Errorf("parse error offset = %v, want 23", out["offset"])
	}
	if code, out := post(askRequest{ID: loaded.ID, Formula: "exists u . in(Zed, u)"}); code != http.StatusBadRequest {
		t.Errorf("schema error: status %d, want 400", code)
	} else if off, ok := out["offset"].(float64); !ok || int(off) != 14 {
		t.Errorf("schema error offset = %v, want 14", out["offset"])
	}
	if code, _ := post(askRequest{ID: loaded.ID, Formula: "exists u . in(P, u)", Query: "nonempty", Regions: []string{"P"}}); code != http.StatusBadRequest {
		t.Errorf("both forms: status %d, want 400", code)
	}
	if code, _ := post(askRequest{ID: loaded.ID, Formula: "exists u . in(P, u)", Regions: []string{"P"}}); code != http.StatusBadRequest {
		t.Errorf("regions alongside formula: status %d, want 400 (they are silently meaningless)", code)
	}
	if code, _ := post(askRequest{ID: loaded.ID}); code != http.StatusBadRequest {
		t.Errorf("no query: status %d, want 400", code)
	}
	// Legacy named queries expand server-side: their errors must not leak a
	// byte offset into text the client never sent.
	if code, out := post(askRequest{ID: loaded.ID, Query: "nonempty", Regions: []string{"Zed"}}); code != http.StatusBadRequest {
		t.Errorf("legacy unknown region: status %d, want 400", code)
	} else if _, hasOffset := out["offset"]; hasOffset {
		t.Errorf("legacy alias error carries an offset into server-side text: %v", out)
	}
	deep := askRequest{ID: loaded.ID,
		Formula: "exists a . exists b . exists c . exists d . exists e . exists f . exists g . " +
			"in(P, a) and in(P, b) and in(P, c) and in(P, d) and in(P, e) and in(P, f) and in(P, g)"}
	if code, out := post(deep); code != http.StatusBadRequest {
		t.Errorf("depth cap: status %d (%v), want 400", code, out)
	}
	// Depth 6 — the cap itself, affordable since evaluation compiles to
	// bitset algebra — is served.
	six := askRequest{ID: loaded.ID,
		Formula: "exists a . exists b . exists c . exists d . exists e . exists f . " +
			"in(P, a) and in(P, b) and in(P, c) and in(P, d) and in(P, e) and in(P, f)"}
	if code, out := post(six); code != http.StatusOK {
		t.Errorf("depth 6: status %d (%v), want 200", code, out)
	}
}

// TestServeBatchPerRequestStrategy: the request-level strategy overrides the
// top-level default, and the response reports what actually ran.
func TestServeBatchPerRequestStrategy(t *testing.T) {
	ts := testServer(t)
	var loaded loadResponse
	postJSON(t, ts.URL+"/v1/instances", loadRequest{Workload: "nested", Scale: 1}, &loaded)

	var batch []batchItemResponse
	breq := batchRequest{Strategy: "fixpoint", Requests: []askRequest{
		{ID: loaded.ID, Query: "nonempty", Regions: []string{"P"}},
		{ID: loaded.ID, Query: "nonempty", Regions: []string{"P"}, Strategy: "direct"},
		{ID: loaded.ID, Query: "nonempty", Regions: []string{"P"}, Strategy: "nope"},
	}}
	if resp := postJSON(t, ts.URL+"/v1/batch", breq, &batch); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d", resp.StatusCode)
	}
	if len(batch) != 3 {
		t.Fatalf("batch: %d results", len(batch))
	}
	if batch[0].Strategy != "via-invariant-fixpoint" {
		t.Errorf("item 0 ran %q, want the top-level default fixpoint", batch[0].Strategy)
	}
	if batch[1].Strategy != "direct" {
		t.Errorf("item 1 ran %q, want the per-request direct override", batch[1].Strategy)
	}
	if batch[2].Error == "" {
		t.Error("item 2: bad per-request strategy did not error")
	}
	for i, r := range batch {
		if r.Index != i {
			t.Errorf("item %d carries index %d", i, r.Index)
		}
	}
}

// TestServeBatchNDJSON: with Accept: application/x-ndjson the batch response
// streams one JSON line per result, covering every request exactly once —
// including items rejected before evaluation.
func TestServeBatchNDJSON(t *testing.T) {
	ts := testServer(t)
	var loaded loadResponse
	postJSON(t, ts.URL+"/v1/instances", loadRequest{Workload: "nested", Scale: 1}, &loaded)

	breq := batchRequest{Strategy: "auto", Requests: []askRequest{
		{ID: loaded.ID, Formula: "exists u . in(P, u)"},
		{ID: loaded.ID, Formula: "not a formula ("},
		{ID: loaded.ID, Query: "hasinterior", Regions: []string{"P"}},
		{ID: loaded.ID, Formula: "forall u . in(P, u) implies in(P, u)"},
	}}
	data, err := json.Marshal(breq)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/batch", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ndjson batch: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	seen := map[int]batchItemResponse{}
	dec := json.NewDecoder(resp.Body)
	for {
		var item batchItemResponse
		if err := dec.Decode(&item); err != nil {
			break
		}
		if _, dup := seen[item.Index]; dup {
			t.Fatalf("index %d delivered twice", item.Index)
		}
		seen[item.Index] = item
	}
	if len(seen) != len(breq.Requests) {
		t.Fatalf("received %d lines, want %d (%v)", len(seen), len(breq.Requests), seen)
	}
	if seen[1].Error == "" {
		t.Error("malformed formula did not produce an error line")
	}
	if seen[1].Offset == nil || *seen[1].Offset != 4 {
		t.Errorf("malformed formula line lacks the structured offset of the unbound variable: %+v", seen[1])
	}
	for _, i := range []int{0, 2, 3} {
		if seen[i].Error != "" || !seen[i].Answer {
			t.Errorf("item %d: %+v, want a true answer", i, seen[i])
		}
	}
}
