package server

// The posterior-transfer endpoints: the phmsed side of the routing tier's
// migration protocol. When cluster membership changes, phmse-router
// enumerates each losing shard's retained posteriors via the index,
// streams the full documents to their new owners via PUT, and deletes
// each source copy only after the destination acknowledged — so a failed
// transfer always leaves the posterior where it was.
//
//	GET    /v1/posteriors?prefix=   index (open: read-only, no state)
//	PUT    /v1/posteriors/{id}      import one posterior (token-gated)
//	DELETE /v1/posteriors/{id}      drop one posterior  (token-gated)
//
// Imports run through the same byte-budgeted store admission as locally
// kept posteriors (over budget → 507 posterior_budget) and are idempotent:
// re-PUTting an id the store already holds replaces the entry in place.
//
// Every admission gets a new generation, which the export
// (GET /v1/jobs/{id}/posterior) reports in X-Posterior-Generation. A
// DELETE with ?generation=N removes the entry only while it is still
// generation N, and otherwise answers 409 conflict and keeps it: two
// movers holding different rings can pass the same posterior back and
// forth, and each then deletes only the copy it exported. A DELETE without
// generation is unconditional.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"phmse/internal/encode"
)

// authTransfer enforces the bearer token on mutating transfer endpoints
// when Config.AdminToken is set. The index stays open: it exposes only
// ids, hashes, and sizes, and the router needs it for read-only warm-start
// location even when it lacks a token.
func (s *Server) authTransfer(w http.ResponseWriter, r *http.Request) bool {
	if s.cfg.AdminToken == "" || r.Header.Get("Authorization") == "Bearer "+s.cfg.AdminToken {
		return true
	}
	writeError(w, http.StatusUnauthorized, encode.CodeUnauthorized,
		"missing or invalid admin token", "")
	return false
}

func (s *Server) handlePosteriorIndex(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.mgr.posteriors.index(r.URL.Query().Get("prefix")))
}

func (s *Server) handlePosteriorPut(w http.ResponseWriter, r *http.Request) {
	if !s.authTransfer(w, r) {
		return
	}
	id := r.PathValue("id")
	var doc encode.PosteriorDoc
	body := http.MaxBytesReader(w, r.Body, maxRequestBody)
	if err := json.NewDecoder(body).Decode(&doc); err != nil {
		writeError(w, http.StatusBadRequest, encode.CodeBadRequest,
			fmt.Sprintf("decoding posterior document: %v", err), "")
		return
	}
	if doc.Job == "" {
		doc.Job = id
	}
	if doc.Job != id {
		writeError(w, http.StatusBadRequest, encode.CodeBadRequest,
			fmt.Sprintf("path id %q does not match document job %q", id, doc.Job), "")
		return
	}
	// An imported posterior must satisfy everything a disk snapshot must.
	sp, err := storedFromDoc(&doc)
	if err != nil {
		writeError(w, http.StatusBadRequest, encode.CodeBadRequest,
			fmt.Sprintf("invalid posterior document: %v", err), "")
		return
	}
	if !s.mgr.posteriors.putImported(sp) {
		writeError(w, http.StatusInsufficientStorage, encode.CodePosteriorBudget,
			fmt.Sprintf("posterior of %d bytes does not fit the store budget", sp.bytes), "")
		return
	}
	writeJSON(w, http.StatusOK, sp.info())
}

func (s *Server) handlePosteriorDelete(w http.ResponseWriter, r *http.Request) {
	if !s.authTransfer(w, r) {
		return
	}
	id := r.PathValue("id")
	var gen uint64
	if v := r.URL.Query().Get("generation"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil || n == 0 {
			writeError(w, http.StatusBadRequest, encode.CodeBadRequest,
				fmt.Sprintf("generation must be a positive integer, got %q", v), "")
			return
		}
		gen = n
	}
	present, removed := s.mgr.posteriors.remove(id, gen)
	switch {
	case !present:
		writeError(w, http.StatusNotFound, encode.CodeNotFound,
			fmt.Sprintf("no retained posterior for %q", id), "")
		return
	case !removed:
		writeError(w, http.StatusConflict, encode.CodeConflict,
			fmt.Sprintf("posterior of %q is no longer generation %d", id, gen), "")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"removed": true, "job": id})
}
