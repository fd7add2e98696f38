// Package server implements phmsed, the structure-estimation daemon: an
// HTTP/JSON API over the encode problem format with a bounded job queue
// admitted against one processor budget, a topology-keyed plan cache, a
// memory-accounted posterior store for warm-start re-solves, per-job
// cancellation and timeouts, and graceful shutdown. It is the serving
// layer the scaling roadmap (sharding, batching, multi-backend) builds on.
//
// Endpoints (v1):
//
//	POST /v1/solve               submit a problem (async); 202 + job id.
//	                             Accepts "warm_start": {"job": ...} to
//	                             continue from a retained posterior and
//	                             "params": {"keep_posterior": true} to
//	                             retain this job's posterior.
//	GET  /v1/jobs                submission-ordered job listing
//	                             (?state=done&limit=50&after=<id>)
//	GET  /v1/jobs/{id}           job status with cycle-level progress
//	                             (?wait=<ms> answers when the job is
//	                             terminal or the wait has elapsed)
//	GET  /v1/jobs/{id}/result    solution JSON (or ?format=pdb)
//	GET  /v1/jobs/{id}/posterior retained posterior (?cov=full for all of
//	                             it: adds a flat job's covariance matrix;
//	                             X-Posterior-Generation numbers the copy)
//	POST /v1/jobs/{id}/cancel    cancel a queued or running job
//	GET  /v1/posteriors          index of retained posteriors (?prefix=)
//	PUT  /v1/posteriors/{id}     import a posterior document (migration
//	                             ingest; budget-enforced, idempotent)
//	DELETE /v1/posteriors/{id}   drop a retained posterior (migration ack;
//	                             ?generation=N only if still that copy)
//	GET  /healthz                liveness (503 while draining)
//	GET  /readyz                 readiness (503 while draining or when the
//	                             job queue is saturated)
//	GET  /metrics                expvar-style counters, JSON
//
// Failures return the structured error envelope
// {"error": {"code": ..., "message": ..., "state": ...}} with the codes
// defined in package encode; the typed client in internal/client maps them
// onto Go errors.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"phmse/internal/encode"
	"phmse/internal/pdb"
	"phmse/internal/pool"
	"phmse/internal/trace"
)

// maxRequestBody bounds a solve request body (64 MiB holds a problem two
// orders of magnitude larger than the paper's ribosome).
const maxRequestBody = 64 << 20

// maxListLimit caps one page of the job listing.
const maxListLimit = 500

// Config sizes the daemon. The zero value selects defaults that share the
// machine without oversubscription: the processor budget defaults to
// GOMAXPROCS, and team widths are sized per job from the fitted work
// estimator.
type Config struct {
	// MaxProcs is the total processor budget shared by all concurrently
	// running solves (default GOMAXPROCS). Job concurrency is bounded by
	// processors in use — MaxProcs cheap jobs, one processor each, can run
	// at once.
	MaxProcs int
	// QueueDepth bounds the number of jobs waiting for a team; further
	// submissions are rejected with 429 (default 32).
	QueueDepth int
	// CacheSize bounds the plan cache entries (default 64; 0 keeps the
	// default, negative disables caching).
	CacheSize int
	// PosteriorBytes bounds the total heap footprint of retained job
	// posteriors; least-recently-used posteriors are evicted beyond it
	// (default 256 MiB; 0 keeps the default, negative disables retention).
	PosteriorBytes int64
	// InstanceID, when set, marks this daemon as one shard of a routed
	// cluster: job ids are minted shard-qualified ("<instance>.job-000001"
	// instead of "job-000001"), every response carries an
	// X-Phmsed-Instance header, and /healthz, /readyz and /metrics report
	// the id — so phmse-router can build its routing table from health
	// probes and any routed response stays attributable to a shard.
	InstanceID string
	// PosteriorDir, when set, persists retained warm-start posteriors
	// under this directory (one encode.PosteriorDoc JSON snapshot per
	// job) and reloads them on startup within PosteriorBytes, so
	// posteriors survive daemon restarts. Evicted posteriors have their
	// snapshots removed alongside.
	PosteriorDir string
	// AdminToken, when set, gates the mutating posterior-transfer
	// endpoints (PUT/DELETE /v1/posteriors/{id}) behind
	// "Authorization: Bearer <token>". Deploy the same token on every
	// daemon and on the router (-admin-token) so migration passes
	// authenticate cluster-wide; empty leaves the endpoints open (the
	// single-daemon and test default).
	AdminToken string
}

func (c Config) withDefaults() Config {
	if c.MaxProcs <= 0 {
		c.MaxProcs = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 32
	}
	if c.CacheSize == 0 {
		c.CacheSize = 64
	}
	if c.PosteriorBytes == 0 {
		c.PosteriorBytes = 256 << 20
	}
	return c
}

// Server is the phmsed HTTP handler plus its job manager. Create with New;
// it starts accepting work immediately. Call Shutdown to drain.
type Server struct {
	cfg   Config
	mgr   *manager
	mux   *http.ServeMux
	start time.Time
	// The ?wait= long-poll of the status route: waitsParked gauges the
	// handlers parked right now, the rest count how parked waits ended.
	waitsParked, waitsCompleted, waitsTimedOut, waitsAbandoned atomic.Int64
}

// New builds a serving instance.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		mgr:   newManager(cfg),
		mux:   http.NewServeMux(),
		start: time.Now(),
	}
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/posterior", s.handleJobPosterior)
	s.mux.HandleFunc("GET /v1/posteriors", s.handlePosteriorIndex)
	s.mux.HandleFunc("PUT /v1/posteriors/{id}", s.handlePosteriorPut)
	s.mux.HandleFunc("DELETE /v1/posteriors/{id}", s.handlePosteriorDelete)
	s.mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleJobCancel)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// ServeHTTP implements http.Handler. When the daemon has an instance
// identity, every response is stamped with it so a response that crossed
// the routing tier is attributable to the shard that produced it.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.cfg.InstanceID != "" {
		w.Header().Set("X-Phmsed-Instance", s.cfg.InstanceID)
	}
	s.mux.ServeHTTP(w, r)
}

// Shutdown stops intake (new submissions get 503) and drains accepted
// jobs. If ctx expires first, remaining jobs are cancelled and Shutdown
// returns ctx's error once the running solves have wound down.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.mgr.shutdown(ctx)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		// The status line is already on the wire, so the client cannot be
		// told; a failed body write almost always means it hung up. Log it
		// rather than losing it silently.
		log.Printf("phmsed: writing response: %v", err)
	}
}

// writeError emits the v1 structured error envelope.
func writeError(w http.ResponseWriter, httpStatus int, code, message string, state JobState) {
	writeJSON(w, httpStatus, encode.ErrorEnvelope{Error: encode.ErrorBody{
		Code:    code,
		Message: message,
		State:   state,
	}})
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	body, err := encode.ReadBody(http.MaxBytesReader(w, r.Body, maxRequestBody), r.ContentLength, maxRequestBody)
	if err != nil {
		writeError(w, http.StatusBadRequest, encode.CodeBadRequest, "encode: request: "+err.Error(), "")
		return
	}
	p, params, warmRef, err := encode.ParseSolveRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, encode.CodeBadRequest, err.Error(), "")
		return
	}
	// Both hashes are computed once, here: the structure hash admits the
	// warm start, and the job carries both to the plan cache and the
	// posterior store.
	topoHash, structHash := encode.TopologyHash(p), encode.StructureHash(p)
	var warm *storedPosterior
	if warmRef != nil {
		var fail *apiFailure
		warm, fail = s.mgr.resolveWarmStart(warmRef.Job, structHash)
		if fail != nil {
			writeError(w, fail.httpStatus, fail.code, fail.message, fail.state)
			return
		}
	}
	j, err := s.mgr.submit(p, params, warm, topoHash, structHash)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, j.status())
	case err == ErrQueueFull:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, encode.CodeQueueFull, err.Error(), "")
	case err == ErrDraining:
		writeError(w, http.StatusServiceUnavailable, encode.CodeDraining, err.Error(), "")
	default:
		writeError(w, http.StatusInternalServerError, encode.CodeInternal, err.Error(), "")
	}
}

// apiFailure is a resolved request failure: the HTTP status plus the
// envelope fields to report.
type apiFailure struct {
	httpStatus int
	code       string
	message    string
	state      JobState
}

// resolveWarmStart maps a warm_start reference onto a retained posterior,
// distinguishing the three failure modes the API contract names: unknown
// job (not_found), known job without a usable posterior (no_result), and a
// posterior for a different molecule (topology_mismatch). Validating the
// structure hash here turns a silently wrong answer into a 4xx.
func (m *manager) resolveWarmStart(jobID, structHash string) (*storedPosterior, *apiFailure) {
	sp, ok := m.posteriors.get(jobID)
	if !ok {
		if j, exists := m.get(jobID); exists {
			st := j.status()
			msg := fmt.Sprintf("job %s has no retained posterior", jobID)
			switch {
			case !st.State.Terminal():
				msg = fmt.Sprintf("job %s has not finished", jobID)
			case st.State != StateDone:
				msg = fmt.Sprintf("job %s finished without a result", jobID)
			case st.PosteriorKept:
				msg = fmt.Sprintf("job %s's posterior was evicted", jobID)
			default:
				msg = fmt.Sprintf("job %s was not submitted with keep_posterior", jobID)
			}
			return nil, &apiFailure{http.StatusConflict, encode.CodeNoResult, msg, st.State}
		}
		return nil, &apiFailure{http.StatusNotFound, encode.CodeNotFound,
			fmt.Sprintf("unknown job %q", jobID), ""}
	}
	if structHash != sp.structHash {
		return nil, &apiFailure{http.StatusConflict, encode.CodeTopologyMismatch,
			fmt.Sprintf("posterior of job %s belongs to a different molecule (%d atoms, problem %q)",
				jobID, len(sp.post.Positions), sp.problem), ""}
	}
	return sp, nil
}

// handleJobStatus answers the job's status document. With ?wait=<ms> it
// first parks on the job until it is terminal, the wait (clipped to
// encode.MaxStatusWait) elapses or the caller goes away, so a client waiting
// for completion makes one request instead of polling.
func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	var wait time.Duration
	if v := r.URL.Query().Get("wait"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil || ms < 0 {
			writeError(w, http.StatusBadRequest, encode.CodeBadRequest,
				fmt.Sprintf("wait must be a non-negative integer of milliseconds, got %q", v), "")
			return
		}
		wait = time.Duration(min(ms, encode.MaxStatusWait.Milliseconds())) * time.Millisecond
	}
	j, ok := s.mgr.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, encode.CodeNotFound, "unknown job", "")
		return
	}
	if wait > 0 && !s.park(r.Context(), j, wait) {
		return // the caller hung up: nobody to answer
	}
	writeJSON(w, http.StatusOK, j.status())
}

// park blocks until the job is terminal or the wait elapses, and reports
// false when the caller's context ended first. A wait on an already
// terminal job never parks and is not counted.
func (s *Server) park(ctx context.Context, j *job, wait time.Duration) bool {
	select {
	case <-j.done:
		return true
	default:
	}
	s.waitsParked.Add(1)
	defer s.waitsParked.Add(-1)
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-j.done:
		s.waitsCompleted.Add(1)
	case <-t.C:
		s.waitsTimedOut.Add(1)
	case <-ctx.Done():
		s.waitsAbandoned.Add(1)
		return false
	}
	return true
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.requestCancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, encode.CodeNotFound, "unknown job", "")
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, encode.CodeNotFound, "unknown job", "")
		return
	}
	sol, state := j.result()
	if state != StateDone || sol == nil {
		writeError(w, http.StatusConflict, encode.CodeNoResult, "job has no result", state)
		return
	}
	if r.URL.Query().Get("format") == "pdb" {
		sigma := make([]float64, len(sol.Variances))
		for i, v := range sol.Variances {
			sigma[i] = math.Sqrt(v)
		}
		w.Header().Set("Content-Type", "chemical/x-pdb")
		if err := pdb.Write(w, j.problem.Name, j.problem.Atoms, sol.Positions, sigma); err != nil {
			// Headers are gone; all we can do is log-style report in-band.
			fmt.Fprintf(w, "REMARK   phmsed: write error: %v\n", err)
		}
		return
	}
	doc := encode.NewSolutionDoc(j.problem.Name, sol.Positions, sol.Variances,
		sol.Cycles, sol.Converged, sol.RMSChange, sol.Residual, sol.Diagnostics)
	writeJSON(w, http.StatusOK, doc)
}

func (s *Server) handleJobPosterior(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sp, ok := s.mgr.posteriors.get(id)
	if !ok {
		if j, exists := s.mgr.get(id); exists {
			st := j.status()
			writeError(w, http.StatusConflict, encode.CodeNoResult,
				"job has no retained posterior (submit with keep_posterior, or it was evicted)", st.State)
			return
		}
		writeError(w, http.StatusNotFound, encode.CodeNotFound, "unknown job", "")
		return
	}
	// ?cov=full asks for everything retained; without it a flat job's
	// document leaves out its 3n×3n matrix (~20·(3n)² bytes as JSON text).
	w.Header().Set("X-Posterior-Generation", strconv.FormatUint(sp.gen, 10))
	writeJSON(w, http.StatusOK, sp.doc(r.URL.Query().Get("cov") == "full"))
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	state := JobState(q.Get("state"))
	if state != "" && !state.Valid() {
		writeError(w, http.StatusBadRequest, encode.CodeBadRequest,
			fmt.Sprintf("unknown state %q", state), "")
		return
	}
	limit := 50
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, encode.CodeBadRequest,
				fmt.Sprintf("limit must be a positive integer, got %q", v), "")
			return
		}
		limit = n
	}
	if limit > maxListLimit {
		limit = maxListLimit
	}
	jobs, next := s.mgr.list(state, q.Get("after"), limit)
	writeJSON(w, http.StatusOK, encode.JobList{Jobs: jobs, NextAfter: next})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	body := encode.HealthStatus{Status: "ok", InstanceID: s.cfg.InstanceID}
	if s.mgr.isDraining() {
		body.Status = "draining"
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// handleReady is the load-balancer readiness probe: unlike /healthz
// (liveness), it also refuses traffic while the job queue is saturated, so
// a balancer stops routing submissions that would only bounce off 429s.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	depth := s.mgr.queueDepth()
	body := encode.HealthStatus{
		Status:        "ok",
		InstanceID:    s.cfg.InstanceID,
		QueueDepth:    depth,
		QueueCapacity: s.cfg.QueueDepth,
		Running:       s.mgr.countByState()[StateRunning],
	}
	switch {
	case s.mgr.isDraining():
		body.Status = "draining"
		writeJSON(w, http.StatusServiceUnavailable, body)
	case depth >= s.cfg.QueueDepth:
		body.Status = "saturated"
		writeJSON(w, http.StatusServiceUnavailable, body)
	default:
		writeJSON(w, http.StatusOK, body)
	}
}

// Metrics is the JSON document served at /metrics.
type Metrics struct {
	// Instance is the daemon's shard identity, when configured.
	Instance      string       `json:"instance,omitempty"`
	UptimeSeconds float64      `json:"uptime_seconds"`
	Jobs          MetricsJobs  `json:"jobs"`
	Queue         MetricsQueue `json:"queue"`
	// Scheduler reports the processor budget: utilization, active teams,
	// grant/coalesce/shrink counters, and the admission queue-wait
	// histogram.
	Scheduler MetricsScheduler `json:"scheduler"`
	// WorkspacePool reports the size-classed scratch-buffer pool shared by
	// all solves.
	WorkspacePool pool.Stats       `json:"workspace_pool"`
	PlanCache     MetricsPlanCache `json:"plan_cache"`
	// Posteriors reports the warm-start posterior store's occupancy and
	// effectiveness.
	Posteriors MetricsPosteriorStore `json:"posterior_store"`
	// StatusWaits reports the ?wait= long-poll of GET /v1/jobs/{id}.
	StatusWaits MetricsStatusWaits `json:"status_waits"`
	// OpTimes is the per-operation-class time breakdown accumulated across
	// all solves (the paper's d-s/chol/sys/m-m/m-v/vec accounting).
	OpTimes trace.Snapshot `json:"op_times"`
}

// MetricsStatusWaits tallies status requests that parked on a job: Parked
// is the number parked right now; Completed, TimedOut and Abandoned count
// the parked waits that ended with the job terminal, with the wait elapsed
// (the caller got a non-terminal status and asks again), and with the
// caller gone. Waits on an already-terminal job answer at once and are not
// counted. TimedOut growing against Completed means clients wait in many
// short rounds — a proxy or client timeout is clipping them.
type MetricsStatusWaits struct {
	Parked    int64 `json:"parked"`
	Completed int64 `json:"completed"`
	TimedOut  int64 `json:"timed_out"`
	Abandoned int64 `json:"abandoned"`
}

// MetricsJobs tallies jobs by lifecycle state plus intake counters.
type MetricsJobs struct {
	Submitted int64 `json:"submitted"`
	Rejected  int64 `json:"rejected"`
	Queued    int   `json:"queued"`
	Running   int   `json:"running"`
	Done      int   `json:"done"`
	Failed    int   `json:"failed"`
	Cancelled int   `json:"cancelled"`
	// Retries counts automatic re-solve attempts after transient failures;
	// Panics counts worker panics recovered without losing the daemon;
	// FlatFallbacks counts hierarchical solves degraded to one flat attempt.
	Retries       int64 `json:"retries"`
	Panics        int64 `json:"panics"`
	FlatFallbacks int64 `json:"flat_fallbacks"`
}

// MetricsQueue reports queue occupancy.
type MetricsQueue struct {
	Depth    int `json:"depth"`
	Capacity int `json:"capacity"`
}

// MetricsPlanCache reports plan-cache effectiveness.
type MetricsPlanCache struct {
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	Entries int     `json:"entries"`
	HitRate float64 `json:"hit_rate"`
}

// MetricsPosteriorStore reports the posterior store's byte accounting.
type MetricsPosteriorStore struct {
	Entries       int   `json:"entries"`
	Bytes         int64 `json:"bytes"`
	CapacityBytes int64 `json:"capacity_bytes"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Stored        int64 `json:"stored"`
	Rejected      int64 `json:"rejected"`
	Evicted       int64 `json:"evicted"`
	// Persisted counts posteriors snapshotted to disk; Loaded counts
	// snapshots reloaded at startup (both zero unless the store is
	// disk-backed via Config.PosteriorDir).
	Persisted int64 `json:"persisted,omitempty"`
	Loaded    int64 `json:"loaded,omitempty"`
	// Imported counts posteriors admitted over the transfer API
	// (migration ingests); Removed counts explicit transfer deletes (the
	// source side of an acked migration).
	Imported int64 `json:"imported,omitempty"`
	Removed  int64 `json:"removed,omitempty"`
}

// Snapshot assembles the current metrics document.
func (s *Server) Snapshot() Metrics {
	counts := s.mgr.countByState()
	depth := s.mgr.queueDepth()
	hits, misses, entries := s.mgr.cache.stats()
	ps := s.mgr.posteriors.stats()
	m := Metrics{
		Instance:      s.cfg.InstanceID,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Jobs: MetricsJobs{
			Submitted:     s.mgr.submitted.Load(),
			Rejected:      s.mgr.rejected.Load(),
			Queued:        counts[StateQueued],
			Running:       counts[StateRunning],
			Done:          counts[StateDone],
			Failed:        counts[StateFailed],
			Cancelled:     counts[StateCancelled],
			Retries:       s.mgr.retries.Load(),
			Panics:        s.mgr.panics.Load(),
			FlatFallbacks: s.mgr.flatFallbacks.Load(),
		},
		Queue: MetricsQueue{
			Depth:    depth,
			Capacity: s.cfg.QueueDepth,
		},
		Scheduler:     s.mgr.admit.snapshot(),
		WorkspacePool: pool.Snapshot(),
		PlanCache:     MetricsPlanCache{Hits: hits, Misses: misses, Entries: entries},
		Posteriors: MetricsPosteriorStore{
			Entries:       ps.entries,
			Bytes:         ps.bytes,
			CapacityBytes: ps.capacity,
			Hits:          ps.hits,
			Misses:        ps.misses,
			Stored:        ps.stored,
			Rejected:      ps.rejected,
			Evicted:       ps.evicted,
			Persisted:     ps.persisted,
			Loaded:        ps.loaded,
			Imported:      ps.imported,
			Removed:       ps.removed,
		},
		StatusWaits: MetricsStatusWaits{
			Parked:    s.waitsParked.Load(),
			Completed: s.waitsCompleted.Load(),
			TimedOut:  s.waitsTimedOut.Load(),
			Abandoned: s.waitsAbandoned.Load(),
		},
		OpTimes: s.mgr.rec.Snapshot(),
	}
	if depth > 0 {
		m.Scheduler.Waiting = 1
	}
	if total := hits + misses; total > 0 {
		m.PlanCache.HitRate = float64(hits) / float64(total)
	}
	return m
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}
