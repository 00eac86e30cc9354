// The serve subcommand exposes the concurrent query engine as a small HTTP
// JSON API:
//
//	POST /v1/instances          load an instance: {"workload":"landuse","scale":1},
//	                            {"data":"<base64 of a topoinv encode blob>"} or
//	                            {"geojson":{…FeatureCollection…},"precision":7};
//	                            gzipped bodies accepted via Content-Encoding:
//	                            gzip (1MB post-inflate cap); returns the
//	                            content-addressed instance id
//	GET  /v1/instances          list loaded instances
//	DELETE /v1/instances/{id}   unload an instance from the registry (its
//	                            invariant may stay cached until evicted)
//	GET  /v1/instances/{id}/invariant
//	                            compute (or fetch from cache) the invariant;
//	                            add ?format=binary for the encoded blob
//	POST /v1/ask                one query, written in the FO(P,<x,<y) query
//	                            language — {"id":"…","formula":"exists u .
//	                            in(P, u) and in(Q, u)","strategy":"auto"} —
//	                            or as a legacy name — {"id":"…","query":
//	                            "intersects","regions":["P","Q"]}; legacy
//	                            names are expanded to formula text and
//	                            parsed, so both spellings share one
//	                            evaluation path and one answer-cache entry.
//	                            The response carries the canonical form.
//	                            With ?debug=timings the response also carries
//	                            a per-stage "timings" span tree (answer
//	                            cache, invariant fetch, evaluation).
//	POST /v1/batch              many queries over the worker pool:
//	                            {"strategy":"fixpoint","requests":[{…},…]};
//	                            each request may carry its own "strategy"
//	                            override and "formula" or legacy name.  With
//	                            Accept: application/x-ndjson the response
//	                            streams one JSON line per result as workers
//	                            finish (each line carries "index"); otherwise
//	                            a JSON array in request order is returned.
//	                            ?debug=timings adds per-item span trees.
//	GET  /v1/instances/{id}/similar?k=N
//	                            top-N topologically similar instances from the
//	                            persistent corpus: exact homeomorphism-class
//	                            matches first (distance 0), then approximate
//	                            matches ranked by the feature-space distance
//	POST /v1/similar            the same retrieval for an inline probe (the
//	                            POST /v1/instances body fields plus "k");
//	                            the probe is not registered for serving
//	GET  /v1/stats              engine caches (invariant + answer) and
//	                            per-strategy counters, plus uptime_seconds,
//	                            build info (module version / vcs revision)
//	                            and a JSON snapshot of every /metrics
//	                            instrument; served with Cache-Control:
//	                            no-store so dashboards can detect restarts
//	GET  /metrics               every registered instrument (engine, store,
//	                            sweep/arrangement, HTTP) in the Prometheus
//	                            text exposition format
//
// Flags beyond the PR-4 set: -log-format text|json and -log-level pick the
// structured-log encoding (all serve logging is log/slog with req_id /
// instance / strategy keys; request ids propagate through the request
// context into engine log lines), -slow <duration> logs any request slower
// than the threshold together with its full span tree, and -debug-addr
// mounts net/http/pprof on a second, normally loopback-only listener kept
// off the public API socket.
//
// Shutdown is graceful: SIGINT/SIGTERM stops accepting connections, drains
// in-flight requests (NDJSON streams included) for up to 10s via
// http.Server.Shutdown, and only then flushes and closes the invariant
// store — the manifest write can no longer race open requests.
//
// Query-language errors (parse failures, unresolved region names) come back
// as {"error": …, "offset": N} with the byte offset into the formula.
package main

import (
	"compress/gzip"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime/debug"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/topoinv"
)

func runServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	cacheCap := fs.Int("cache", 128, "invariant cache capacity (entries)")
	answerCap := fs.Int("answers", 0, "answer cache capacity (0 = default)")
	evalCap := fs.Int("evaluators", 0, "compiled-evaluator cache capacity (0 = default)")
	workers := fs.Int("workers", 0, "batch worker-pool size (0 = GOMAXPROCS)")
	storeDir := fs.String("store", "", "directory for the disk-persistent invariant store (empty = memory only)")
	logFormat := fs.String("log-format", "text", "structured log encoding: text | json")
	logLevel := fs.String("log-level", "info", "minimum log level: debug | info | warn | error")
	slow := fs.Duration("slow", 0, "log requests slower than this threshold with their span tree (0 = off)")
	debugAddr := fs.String("debug-addr", "", "optional second listen address serving net/http/pprof (keep it loopback-only)")
	fs.Parse(args)

	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	opts := []topoinv.EngineOption{topoinv.WithCacheCapacity(*cacheCap)}
	if *answerCap > 0 {
		opts = append(opts, topoinv.WithAnswerCapacity(*answerCap))
	}
	if *evalCap > 0 {
		opts = append(opts, topoinv.WithEvaluatorCapacity(*evalCap))
	}
	if *workers > 0 {
		opts = append(opts, topoinv.WithWorkers(*workers))
	}
	if *storeDir != "" {
		opts = append(opts, topoinv.WithStore(*storeDir))
	}
	engine := topoinv.NewEngine(opts...)
	if err := engine.StoreErr(); err != nil {
		logger.Error("opening invariant store", "err", err)
		os.Exit(1)
	}
	if *storeDir != "" {
		logger.Info("invariant store open", "dir", *storeDir, "invariants", engine.Store().Len())
	}

	if *debugAddr != "" {
		go servePprof(logger, *debugAddr)
	}

	s := newServer(engine)
	s.slow = *slow
	srv := &http.Server{Addr: *addr, Handler: s.routes()}

	// Graceful shutdown: stop accepting, drain in-flight requests (NDJSON
	// streams included), then flush the store manifest.  Closing the engine
	// only after Shutdown returns means the manifest write cannot race an
	// open request's store reads.
	done := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		defer close(done)
		<-sig
		logger.Info("signal received; draining in-flight requests")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Warn("shutdown did not drain cleanly", "err", err)
		}
	}()

	logger.Info("topoinv engine listening", "addr", *addr)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("listen", "addr", *addr, "err", err)
		os.Exit(1)
	}
	<-done
	if err := engine.Close(); err != nil {
		logger.Error("closing invariant store", "err", err)
		os.Exit(1)
	}
	logger.Info("shutdown complete")
}

func buildLogger(format, level string) (*slog.Logger, error) {
	lvl, err := topoinv.ParseLogLevel(level)
	if err != nil {
		return nil, err
	}
	if format != "text" && format != "json" {
		return nil, fmt.Errorf("unknown log format %q (want text | json)", format)
	}
	return topoinv.NewLogger(os.Stderr, format, lvl), nil
}

// servePprof mounts net/http/pprof on its own listener, so profiling stays
// off the public API socket (bind it to loopback in production).
func servePprof(logger *slog.Logger, addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	logger.Info("pprof listening", "addr", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		logger.Error("pprof listener failed", "addr", addr, "err", err)
	}
}

// server is the HTTP front-end: a registry of loaded instances (keyed by
// content address) in front of the shared query engine.
type server struct {
	engine *topoinv.Engine
	start  time.Time
	build  buildInfo
	// slow is the slow-request log threshold (0 disables); requests over it
	// are logged with their full span tree.
	slow time.Duration

	mu        sync.RWMutex
	instances map[string]*topoinv.Instance
}

func newServer(e *topoinv.Engine) *server {
	return &server{
		engine:    e,
		start:     time.Now(),
		build:     readBuildInfo(),
		instances: make(map[string]*topoinv.Instance),
	}
}

// buildInfo identifies the running binary, so a dashboard can tell a restart
// from a redeploy.
type buildInfo struct {
	Version   string `json:"version,omitempty"`
	Revision  string `json:"vcs_revision,omitempty"`
	Modified  bool   `json:"vcs_modified,omitempty"`
	GoVersion string `json:"go_version,omitempty"`
}

func readBuildInfo() buildInfo {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return buildInfo{}
	}
	out := buildInfo{Version: bi.Main.Version, GoVersion: bi.GoVersion}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			out.Revision = s.Value
		case "vcs.modified":
			out.Modified = s.Value == "true"
		}
	}
	return out
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	s.handle(mux, "POST /v1/instances", "/v1/instances", s.handleLoad)
	s.handle(mux, "GET /v1/instances", "/v1/instances", s.handleList)
	s.handle(mux, "DELETE /v1/instances/{id}", "/v1/instances/{id}", s.handleUnload)
	s.handle(mux, "GET /v1/instances/{id}/invariant", "/v1/instances/{id}/invariant", s.handleInvariant)
	s.handle(mux, "GET /v1/instances/{id}/similar", "/v1/instances/{id}/similar", s.handleSimilar)
	s.handle(mux, "POST /v1/similar", "/v1/similar", s.handleSimilarProbe)
	s.handle(mux, "POST /v1/ask", "/v1/ask", s.handleAsk)
	s.handle(mux, "POST /v1/batch", "/v1/batch", s.handleBatch)
	s.handle(mux, "GET /v1/stats", "/v1/stats", s.handleStats)
	s.handle(mux, "GET /metrics", "/metrics", s.handleMetrics)
	return mux
}

func (s *server) get(id string) (*topoinv.Instance, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	inst, ok := s.instances[id]
	return inst, ok
}

type loadRequest struct {
	// Workload + Scale generate a built-in workload…
	Workload string `json:"workload,omitempty"`
	Scale    int    `json:"scale,omitempty"`
	// …or Data carries a base64-encoded binary instance blob…
	Data string `json:"data,omitempty"`
	// …or GeoJSON carries an inline GeoJSON document (FeatureCollection,
	// Feature or bare geometry), imported with rational coordinate
	// snapping at the given decimal precision (0 ⇒ the default grid).
	GeoJSON   json.RawMessage `json:"geojson,omitempty"`
	Precision int             `json:"precision,omitempty"`
	// K is only read by POST /v1/similar: the number of matches to return
	// (default 5, capped at maxSimilarK).
	K int `json:"k,omitempty"`
}

type loadResponse struct {
	ID       string `json:"id"`
	Regions  int    `json:"regions"`
	Features int    `json:"features"`
	Points   int    `json:"points"`
}

// Body limits: geometry validation is O((n+k) log n) via the sweep-line
// checker, but unbounded uploads are still a memory and parsing DoS.
// maxBodyBytes caps every request body; maxGeoJSONBytes caps inline GeoJSON
// early (and is also the post-inflate cap for gzip uploads), and the
// importer's own position limits (MaxRingVertices / MaxPolygonPositions /
// MaxDocumentPositions) bound the validation cost: typical cartographic
// data (~80 vertices per polygon) validates in microseconds, a maximal
// 100k-vertex ring in about half a second.
const (
	maxBodyBytes    = 8 << 20
	maxGeoJSONBytes = 1 << 20
)

// readLoadBody decodes the load request, transparently inflating
// Content-Encoding: gzip bodies.  Compressed uploads matter for GeoJSON —
// coordinate-heavy JSON compresses ~10x, so the raised vertex budgets stay
// reachable through reasonable request sizes.  The inflated bytes are
// capped at maxGeoJSONBytes (a gzip bomb fails fast with 413); uncompressed
// bodies keep the larger maxBodyBytes cap, since base64 instance blobs
// arrive uncompressed.
func readLoadBody(w http.ResponseWriter, r *http.Request) (*loadRequest, int, error) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var req loadRequest
	if strings.EqualFold(r.Header.Get("Content-Encoding"), "gzip") {
		zr, err := gzip.NewReader(r.Body)
		if err != nil {
			return nil, http.StatusBadRequest, fmt.Errorf("bad gzip body: %w", err)
		}
		defer zr.Close()
		data, err := io.ReadAll(io.LimitReader(zr, maxGeoJSONBytes+1))
		if err != nil {
			return nil, http.StatusBadRequest, fmt.Errorf("bad gzip body: %w", err)
		}
		if len(data) > maxGeoJSONBytes {
			return nil, http.StatusRequestEntityTooLarge,
				fmt.Errorf("gzipped body inflates past %d bytes", maxGeoJSONBytes)
		}
		if err := json.Unmarshal(data, &req); err != nil {
			return nil, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err)
		}
		return &req, 0, nil
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err)
	}
	return &req, 0, nil
}

// instanceFromLoadRequest materializes the instance a load-shaped request
// describes (inline GeoJSON, base64 instance blob, or named workload) —
// shared by POST /v1/instances and the POST /v1/similar probe. The int is
// the HTTP status for the returned error.
func instanceFromLoadRequest(req loadRequest) (*topoinv.Instance, int, error) {
	if len(req.GeoJSON) > maxGeoJSONBytes {
		return nil, http.StatusBadRequest, fmt.Errorf("geojson document larger than %d bytes", maxGeoJSONBytes)
	}
	// Clients that emit every field treat absent values as JSON null;
	// RawMessage keeps the literal "null" bytes, which must not shadow a
	// workload/data load.
	if string(req.GeoJSON) == "null" {
		req.GeoJSON = nil
	}
	switch {
	case len(req.GeoJSON) > 0:
		var opts []topoinv.GeoJSONOption
		if req.Precision > 0 {
			opts = append(opts, topoinv.GeoJSONPrecision(req.Precision))
		}
		inst, err := topoinv.ImportGeoJSON(req.GeoJSON, opts...)
		if err != nil {
			return nil, http.StatusBadRequest, fmt.Errorf("bad geojson: %w", err)
		}
		return inst, 0, nil
	case req.Data != "":
		raw, err := base64.StdEncoding.DecodeString(req.Data)
		if err != nil {
			return nil, http.StatusBadRequest, fmt.Errorf("bad base64 data: %w", err)
		}
		inst, err := topoinv.Decode(raw)
		if err != nil {
			return nil, http.StatusBadRequest, fmt.Errorf("bad instance blob: %w", err)
		}
		return inst, 0, nil
	case req.Workload != "":
		scale := req.Scale
		if scale < 1 {
			scale = 1
		}
		inst, err := generateWorkload(req.Workload, scale)
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		return inst, 0, nil
	}
	return nil, http.StatusBadRequest, fmt.Errorf("provide workload, data or geojson")
}

func (s *server) handleLoad(w http.ResponseWriter, r *http.Request) {
	reqp, status, err := readLoadBody(w, r)
	if err != nil {
		httpError(w, status, "%v", err)
		return
	}
	inst, status, err := instanceFromLoadRequest(*reqp)
	if err != nil {
		httpError(w, status, "%v", err)
		return
	}
	id, err := topoinv.InstanceKey(inst)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.mu.Lock()
	s.instances[id] = inst
	s.mu.Unlock()
	sum := inst.Summarise()
	slog.Debug("serve: instance loaded",
		"req_id", topoinv.RequestIDFrom(r.Context()),
		"instance", id, "regions", sum.Regions, "points", sum.Points)
	writeJSON(w, http.StatusOK, loadResponse{ID: id, Regions: sum.Regions, Features: sum.Features, Points: sum.Points})
}

func generateWorkload(name string, scale int) (*topoinv.Instance, error) {
	switch name {
	case "landuse":
		return topoinv.LandUse(topoinv.DefaultLandUse(scale))
	case "hydrography":
		return topoinv.Hydrography(topoinv.DefaultHydrography(scale))
	case "commune":
		return topoinv.Commune(topoinv.DefaultCommune(scale))
	case "nested":
		return topoinv.NestedRegions(scale + 1)
	case "multicomponent":
		return topoinv.MultiComponent(scale + 2)
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
}

// handleUnload removes an instance from the registry (the invariant may stay
// in the engine's LRU cache until evicted).  Without this the registry — the
// largest objects the server holds — would only ever grow.
func (s *server) handleUnload(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	_, ok := s.instances[id]
	delete(s.instances, id)
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "unknown instance id")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

// listEntry is one GET /v1/instances row: the load summary plus the
// similarity-index identity (exact-tier equivalence class and invariant
// fingerprint, both hex SHA-256). The identity fields are present once the
// instance's invariant has been computed; class is omitted when the exact
// tier abstained on an oversized invariant.
type listEntry struct {
	loadResponse
	Class       string `json:"class,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
}

func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	out := make([]listEntry, 0, len(s.instances))
	for id, inst := range s.instances {
		sum := inst.Summarise()
		e := listEntry{loadResponse: loadResponse{ID: id, Regions: sum.Regions, Features: sum.Features, Points: sum.Points}}
		if ent, ok := s.engine.SimEntry(inst); ok {
			e.Class, e.Fingerprint = ent.Class, ent.Fingerprint
		}
		out = append(out, e)
	}
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, out)
}

type invariantResponse struct {
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	Faces    int    `json:"faces"`
	Cells    int    `json:"cells"`
	Cached   bool   `json:"cached"`
	Data     string `json:"data,omitempty"`
}

func (s *server) handleInvariant(w http.ResponseWriter, r *http.Request) {
	inst, ok := s.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown instance id")
		return
	}
	_, cached := s.engine.CachedInvariant(inst)
	inv, err := s.engine.Invariant(inst)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	resp := invariantResponse{
		Vertices: len(inv.Vertices),
		Edges:    len(inv.Edges),
		Faces:    len(inv.Faces),
		Cells:    inv.CellCount(),
		Cached:   cached,
	}
	if r.URL.Query().Get("format") == "binary" {
		data, err := topoinv.EncodeInvariant(inv)
		if err != nil {
			httpError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		resp.Data = base64.StdEncoding.EncodeToString(data)
	}
	writeJSON(w, http.StatusOK, resp)
}

type askRequest struct {
	ID string `json:"id"`
	// Formula is a sentence of the FO(P,<x,<y) query language, e.g.
	// "exists u . in(P, u) and interior(Q, u)".
	Formula string `json:"formula,omitempty"`
	// Query + Regions is the legacy named form (nonempty | hasinterior |
	// intersects | contained | boundaryonly); it is expanded to formula
	// text and parsed, so both forms share one evaluation path.
	Query    string   `json:"query,omitempty"`
	Regions  []string `json:"regions,omitempty"`
	Strategy string   `json:"strategy,omitempty"`
}

type askResponse struct {
	Answer    bool   `json:"answer"`
	Canonical string `json:"canonical"`
	CacheHit  bool   `json:"cache_hit"`
	AnswerHit bool   `json:"answer_hit"`
	Latency   int64  `json:"latency_ns"`
	Strategy  string `json:"strategy"`
	// Timings is the per-stage span tree, present only with ?debug=timings.
	Timings *topoinv.StageTiming `json:"timings,omitempty"`
}

// maxQuantifierDepth caps the quantifier depth of served formulas.  The
// compiled bitset evaluator prices a quantifier level in 64-bit word
// operations over the membership matrix, not in exact-rational geometry:
// the innermost level collapses to an any-bit test, single-variable
// restrictions are pre-folded columns, and only levels carrying nested
// quantifiers enumerate candidates — so the worst case is
// O(sample^(depth-1) · sample/64) word ops with aggressive short-circuit,
// and depth 6 evaluates in the time geometry-priced depth 4 used to.
// Unbounded depth is still an easy CPU DoS on an open endpoint (the
// sample^(depth-1) factor survives for adversarial alternations), hence a
// cap; the legacy aliases all have depth 1.  The CLI (topoinv ask) and the
// library accept depth up to 64, the compiler's variable-slot limit.
const maxQuantifierDepth = 6

// buildQuery resolves a request's query: an explicit formula in the textual
// query language, or a legacy name expanded through topoinv.QueryAlias.  The
// returned query has been parsed, canonicalized and schema-checked — there
// is exactly one path from request to evaluated AST.
func buildQuery(req askRequest, inst *topoinv.Instance) (topoinv.Query, error) {
	src := req.Formula
	fromAlias := false
	switch {
	case req.Query != "" && req.Formula != "":
		return nil, fmt.Errorf(`provide "formula" or the legacy "query" name, not both`)
	case req.Formula != "" && len(req.Regions) > 0:
		// Silently dropping the regions would let a client migrating from
		// the legacy form believe they constrain the formula.
		return nil, fmt.Errorf(`"regions" only applies to the legacy "query" form; name regions inside the formula instead`)
	case req.Query != "":
		var err error
		if src, err = topoinv.QueryAlias(req.Query, req.Regions...); err != nil {
			return nil, err
		}
		fromAlias = true
	case src == "":
		return nil, fmt.Errorf(`provide a "formula" or a legacy "query" name`)
	}
	q, err := topoinv.ParseQuery(src)
	if err == nil {
		err = q.CheckSchema(inst.Schema())
	}
	if err != nil {
		if fromAlias {
			// The byte offset indexes the server-side alias expansion, which
			// the client never sent; keep the message, drop the offset.
			var qe *topoinv.QueryError
			if errors.As(err, &qe) {
				return nil, fmt.Errorf("%s", qe.Msg)
			}
		}
		return nil, err
	}
	if d := topoinv.QueryDepth(q.Formula); d > maxQuantifierDepth {
		return nil, fmt.Errorf("quantifier depth %d exceeds the served limit of %d", d, maxQuantifierDepth)
	}
	return q.Formula, nil
}

func parseStrategy(name string) (topoinv.Strategy, error) {
	if name == "" {
		return topoinv.ViaInvariantFixpoint, nil
	}
	s, ok := strategies[name]
	if !ok {
		return 0, fmt.Errorf("unknown strategy %q (want direct | fo | fixpoint | linearized | auto)", name)
	}
	return s, nil
}

// wantTimings reports whether the request opted into the per-stage timings
// breakdown (?debug=timings).
func wantTimings(r *http.Request) bool {
	return r.URL.Query().Get("debug") == "timings"
}

func (s *server) handleAsk(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var req askRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	inst, ok := s.get(req.ID)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown instance id")
		return
	}
	q, err := buildQuery(req, inst)
	if err != nil {
		queryError(w, err)
		return
	}
	strat, err := parseStrategy(req.Strategy)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The span recorder stays nil unless the client asked for timings or
	// slow-request logging needs a tree to print: the disabled path costs
	// one nil test per stage in the engine.
	var span *topoinv.Span
	if wantTimings(r) || s.slow > 0 {
		span = topoinv.StartSpan("ask")
	}
	res := s.engine.Do(topoinv.BatchRequest{
		Instance: inst, Query: q,
		Strategy: strat, StrategySet: true,
		Ctx: r.Context(), Span: span,
	}, strat)
	span.End()
	s.logSlow(r, "ask", req.ID, res, span)
	if res.Err != nil {
		httpError(w, http.StatusUnprocessableEntity, "%v", res.Err)
		return
	}
	resp := askResponse{
		Answer:    res.Answer,
		Canonical: res.Canonical,
		CacheHit:  res.CacheHit,
		AnswerHit: res.AnswerHit,
		Latency:   res.Latency.Nanoseconds(),
		// The strategy that actually ran: for "auto" this is the resolved
		// one (fixpoint or the direct fallback).
		Strategy: res.Strategy.String(),
	}
	if wantTimings(r) {
		resp.Timings = span.Timings()
	}
	writeJSON(w, http.StatusOK, resp)
}

// logSlow emits a slow-request log line (with the span tree when one was
// recorded) for requests over the -slow threshold.
func (s *server) logSlow(r *http.Request, kind, instance string, res topoinv.BatchResult, span *topoinv.Span) {
	if s.slow <= 0 || res.Latency < s.slow {
		return
	}
	slog.Warn("serve: slow request",
		"req_id", topoinv.RequestIDFrom(r.Context()),
		"kind", kind,
		"instance", instance,
		"strategy", res.Strategy.String(),
		"latency", res.Latency,
		"canonical", res.Canonical,
		"span", span.String())
}

// queryError writes a query-construction failure.  Structured query-language
// errors carry the byte offset of the offending token into the response.
func queryError(w http.ResponseWriter, err error) {
	var qe *topoinv.QueryError
	if errors.As(err, &qe) {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": qe.Error(), "offset": qe.Offset})
		return
	}
	httpError(w, http.StatusBadRequest, "%v", err)
}

type batchRequest struct {
	Strategy string       `json:"strategy,omitempty"`
	Requests []askRequest `json:"requests"`
}

type batchItemResponse struct {
	Index     int    `json:"index"`
	Answer    bool   `json:"answer"`
	Canonical string `json:"canonical,omitempty"`
	Error     string `json:"error,omitempty"`
	// Offset carries the byte offset of a structured query-language error
	// into the request's formula text (absent for other errors, and for
	// legacy named queries, whose expansion the client never sent).
	Offset    *int   `json:"offset,omitempty"`
	CacheHit  bool   `json:"cache_hit"`
	AnswerHit bool   `json:"answer_hit"`
	Latency   int64  `json:"latency_ns"`
	Strategy  string `json:"strategy,omitempty"`
	// Timings is the per-stage span tree, present only with ?debug=timings.
	Timings *topoinv.StageTiming `json:"timings,omitempty"`
}

// batchItem renders one batch result, ending its span (nil unless timings
// or slow-request logging asked for one); the tree goes into the response
// only when the client asked for timings.
func batchItem(index int, res topoinv.BatchResult, span *topoinv.Span, timings bool) batchItemResponse {
	out := batchItemResponse{
		Index:     index,
		Answer:    res.Answer,
		Canonical: res.Canonical,
		CacheHit:  res.CacheHit,
		AnswerHit: res.AnswerHit,
		Latency:   res.Latency.Nanoseconds(),
		Strategy:  res.Strategy.String(),
	}
	if res.Err != nil {
		out.Error = res.Err.Error()
	}
	span.End()
	if timings {
		out.Timings = span.Timings()
	}
	return out
}

// handleBatch evaluates many queries on the worker pool.  Per-request
// failures that are detectable before evaluation (a malformed formula, an
// unknown legacy name, a bad per-request strategy) become per-item errors —
// the rest of the batch still runs — while an unknown instance id fails the
// whole batch with 404 before any work starts (it is almost always a caller
// bug, and the NDJSON mode cannot change the status once streaming).
//
// With Accept: application/x-ndjson the response is NDJSON: one JSON object
// per line, written as each worker finishes, identified by "index".  The
// plain mode returns a JSON array in request order.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var req batchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	defStrat, err := parseStrategy(req.Strategy)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	timings := wantTimings(r)
	out := make([]batchItemResponse, len(req.Requests))
	spans := make([]*topoinv.Span, len(req.Requests))
	var engReqs []topoinv.BatchRequest
	var origIdx []int
	for i, a := range req.Requests {
		inst, ok := s.get(a.ID)
		if !ok {
			httpError(w, http.StatusNotFound, "request %d: unknown instance id", i)
			return
		}
		out[i] = batchItemResponse{Index: i}
		q, err := buildQuery(a, inst)
		if err != nil {
			out[i].Error = err.Error()
			// Formula errors are structured: surface the offset like
			// /v1/ask does (buildQuery already strips alias offsets).
			var qe *topoinv.QueryError
			if errors.As(err, &qe) {
				off := qe.Offset
				out[i].Offset = &off
			}
			continue
		}
		engReq := topoinv.BatchRequest{Instance: inst, Query: q, Ctx: r.Context()}
		// As in handleAsk: slow-request logging needs a tree to print too.
		if timings || s.slow > 0 {
			spans[i] = topoinv.StartSpan("batch_item")
			engReq.Span = spans[i]
		}
		if a.Strategy != "" {
			strat, err := parseStrategy(a.Strategy)
			if err != nil {
				out[i].Error = err.Error()
				continue
			}
			engReq.Strategy, engReq.StrategySet = strat, true
		}
		engReqs = append(engReqs, engReq)
		origIdx = append(origIdx, i)
	}

	if strings.Contains(r.Header.Get("Accept"), "application/x-ndjson") {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		enc := json.NewEncoder(w)
		flusher, _ := w.(http.Flusher)
		// gone flips on client disconnect (or the first write failure):
		// from then on results are discarded silently instead of logging
		// one encode error per remaining item.  BatchStream must still be
		// drained — abandoning the channel would leak its workers — so the
		// already-submitted evaluations run to completion either way.
		gone := false
		emit := func(item batchItemResponse) {
			if gone {
				return
			}
			if r.Context().Err() != nil {
				gone = true
				return
			}
			if err := enc.Encode(item); err != nil {
				// Debug, not Info: a client hanging up mid-stream is routine
				// under load, and one line per disconnected batch would be
				// pure log spam.
				slog.Debug("serve: ndjson client gone",
					"req_id", topoinv.RequestIDFrom(r.Context()),
					"after_item", item.Index, "err", err)
				gone = true
				return
			}
			mNDJSONLines.Inc()
			if flusher != nil {
				flusher.Flush()
			}
		}
		// Items rejected before evaluation are already final: emit them
		// first, then stream evaluation results in completion order.
		for i := range out {
			if out[i].Error != "" {
				emit(out[i])
			}
		}
		for res := range s.engine.BatchStream(engReqs, defStrat) {
			i := origIdx[res.Index]
			item := batchItem(i, res, spans[i], timings)
			s.logSlow(r, "batch_item", req.Requests[i].ID, res, spans[i])
			emit(item)
		}
		return
	}

	for _, res := range s.engine.Batch(engReqs, defStrat) {
		i := origIdx[res.Index]
		out[i] = batchItem(i, res, spans[i], timings)
		s.logSlow(r, "batch_item", req.Requests[i].ID, res, spans[i])
	}
	writeJSON(w, http.StatusOK, out)
}

// statsResponse embeds the engine snapshot (its fields stay at the top level
// for existing clients) and adds service-level identity: uptime, build info
// and the full metrics snapshot.
type statsResponse struct {
	topoinv.EngineStats
	UptimeSeconds float64        `json:"uptime_seconds"`
	Build         buildInfo      `json:"build"`
	Metrics       map[string]any `json:"metrics"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	// Dashboards poll this endpoint to detect restarts (uptime going
	// backwards); a cached response would mask exactly that signal.
	w.Header().Set("Cache-Control", "no-store, no-cache, must-revalidate")
	w.Header().Set("Pragma", "no-cache")
	metrics := topoinv.Metrics.Snapshot()
	maps.Copy(metrics, s.engine.Metrics().Snapshot())
	writeJSON(w, http.StatusOK, statsResponse{
		EngineStats:   s.engine.Stats(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		Build:         s.build,
		Metrics:       metrics,
	})
}

// handleMetrics renders every registered instrument in the Prometheus text
// exposition format: the process-wide registry, then the engine's own.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	for _, reg := range []*topoinv.MetricsRegistry{topoinv.Metrics, s.engine.Metrics()} {
		if err := reg.WritePrometheus(w); err != nil {
			slog.Debug("serve: metrics client gone", "err", err)
			return
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		slog.Debug("serve: encoding response", "err", err)
	}
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
