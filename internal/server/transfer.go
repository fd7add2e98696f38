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

import (
	"encoding/json"
	"fmt"
	"net/http"

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
	// The import gate: a migration or repair wave may aim many concurrent
	// transfer streams at one destination; beyond the configured cap the
	// daemon sheds load with the same 429 + Retry-After contract as a full
	// solve queue, and the router's transfer retries back off and replay.
	if limit := s.cfg.TransferInflight; limit > 0 {
		if s.transferInflight.Add(1) > int64(limit) {
			s.transferInflight.Add(-1)
			s.transferRejected.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, encode.CodeQueueFull,
				fmt.Sprintf("transfer import limit of %d in flight reached; retry", limit), "")
			return
		}
		defer s.transferInflight.Add(-1)
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
	if !s.mgr.posteriors.remove(id) {
		writeError(w, http.StatusNotFound, encode.CodeNotFound,
			fmt.Sprintf("no retained posterior for %q", id), "")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"removed": true, "job": id})
}
