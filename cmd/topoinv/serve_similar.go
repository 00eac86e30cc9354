// Similarity-retrieval endpoints: corpus-level "find instances
// topologically equivalent / similar to Q" over the engine's two-tier
// similarity index (internal/simindex).
//
//	GET  /v1/instances/{id}/similar?k=N
//	       top-N matches for a loaded instance: exact-tier matches first
//	       (same homeomorphism equivalence class, distance 0), then
//	       approximate matches ranked by the feature-space comparative
//	       measure.  k defaults to 5, capped at 100.
//	POST /v1/similar
//	       the same retrieval for an inline probe: the body takes the
//	       POST /v1/instances fields (workload/data/geojson) plus "k".
//	       The probe joins the similarity corpus (its invariant is
//	       computed and, with a store, persisted) but is NOT added to the
//	       served instance registry.
package main

import (
	"log/slog"
	"net/http"
	"strconv"

	"repro/topoinv"
)

const (
	defaultSimilarK = 5
	maxSimilarK     = 100
)

// similarResponse is the result of a similarity query.
type similarResponse struct {
	// ID is the probe's content-addressed instance key.
	ID string `json:"id"`
	// Class is the probe's exact-tier equivalence class (hex SHA-256 of
	// the canonical key); empty when the exact tier abstained because the
	// invariant exceeded the canonical-code budget.
	Class string `json:"class,omitempty"`
	// Fingerprint is the hex SHA-256 of the probe's invariant fingerprint.
	Fingerprint string `json:"fingerprint,omitempty"`
	K           int    `json:"k"`
	// Matches are ranked: exact-tier first at distance 0 (sorted by id),
	// then approximate matches by ascending distance.
	Matches []topoinv.SimilarMatch `json:"matches"`
}

// parseK reads ?k= (or a body-supplied value when > 0), applying the
// default and cap.
func parseK(r *http.Request, bodyK int) (int, error) {
	k := bodyK
	if raw := r.URL.Query().Get("k"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			return 0, strconv.ErrSyntax
		}
		k = n
	}
	if k < 1 {
		k = defaultSimilarK
	}
	if k > maxSimilarK {
		k = maxSimilarK
	}
	return k, nil
}

func (s *server) respondSimilar(w http.ResponseWriter, r *http.Request, inst *topoinv.Instance, k int) {
	matches, err := s.engine.Similar(inst, k)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	id, err := s.engine.Key(inst)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	resp := similarResponse{ID: id, K: k, Matches: matches}
	if resp.Matches == nil {
		resp.Matches = []topoinv.SimilarMatch{}
	}
	if ent, ok := s.engine.SimEntry(inst); ok {
		resp.Class, resp.Fingerprint = ent.Class, ent.Fingerprint
	}
	slog.Debug("serve: similarity query",
		"req_id", topoinv.RequestIDFrom(r.Context()),
		"instance", id, "k", k, "matches", len(resp.Matches))
	writeJSON(w, http.StatusOK, resp)
}

// handleSimilar serves GET /v1/instances/{id}/similar for a registry
// instance.
func (s *server) handleSimilar(w http.ResponseWriter, r *http.Request) {
	inst, ok := s.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown instance id")
		return
	}
	k, err := parseK(r, 0)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad k parameter (want a positive integer)")
		return
	}
	s.respondSimilar(w, r, inst, k)
}

// handleSimilarProbe serves POST /v1/similar: an inline probe described
// like a POST /v1/instances body (workload/data/geojson) with an optional
// "k". The probe is not registered for serving.
func (s *server) handleSimilarProbe(w http.ResponseWriter, r *http.Request) {
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
	k, err := parseK(r, reqp.K)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad k parameter (want a positive integer)")
		return
	}
	s.respondSimilar(w, r, inst, k)
}
