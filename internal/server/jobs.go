package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"phmse/internal/core"
	"phmse/internal/encode"
	"phmse/internal/faultinject"
	"phmse/internal/filter"
	"phmse/internal/molecule"
	"phmse/internal/trace"
	"phmse/internal/workest"
)

// JobState is the lifecycle state of a submitted solve. The wire form
// lives in package encode so the typed client and the command-line tools
// share it; the server aliases it for convenience.
type JobState = encode.JobState

// The job lifecycle: queued → running → one of the three terminal states.
// A queued job can also move directly to cancelled.
const (
	StateQueued    = encode.JobQueued
	StateRunning   = encode.JobRunning
	StateDone      = encode.JobDone
	StateFailed    = encode.JobFailed
	StateCancelled = encode.JobCancelled
)

const (
	// maxRetries is the number of automatic re-solve attempts after a
	// transient failure (recoverable numerics, except in a warm job, or a
	// recovered panic), on top of the first attempt.
	maxRetries = 2
	// maxRecords bounds the retained job records.
	maxRecords = 1024
)

// Submission errors, distinguished so the HTTP layer can map them to 503
// and 429 respectively.
var (
	ErrDraining  = errors.New("server: draining, not accepting jobs")
	ErrQueueFull = errors.New("server: job queue full")
)

// job is one submitted solve and its full lifecycle record.
type job struct {
	id string
	// shard is the owning daemon's instance id, reported as the stable
	// "shard" field of the v1 job status (immutable after submit).
	shard   string
	problem *molecule.Problem
	// topoHash and structHash are the problem's hashes, computed once at
	// admission: the plan-cache key and the identity of a kept posterior.
	topoHash   string
	structHash string
	params     encode.SolveParams
	warm       *storedPosterior // non-nil for warm-started solves

	mu            sync.Mutex
	state         JobState
	cycle         int
	rmsChange     float64
	errMsg        string
	errCode       string
	retries       int
	flatFallback  bool
	cacheHit      bool
	posteriorKept bool
	sol           *core.Solution // released: no covariance
	submitted     time.Time
	started       time.Time
	finished      time.Time
	cancel        context.CancelFunc // set while running
	done          chan struct{}      // closed on reaching a terminal state
}

// JobStatus is a point-in-time snapshot of a job, as reported by the API.
// The wire form is encode.JobStatus.
type JobStatus = encode.JobStatus

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:            j.id,
		Shard:         j.shard,
		State:         j.state,
		Problem:       j.problem.Name,
		Atoms:         len(j.problem.Atoms),
		Constraints:   j.problem.Constraints.Len(),
		Cycle:         j.cycle,
		RMSChange:     j.rmsChange,
		PlanCacheHit:  j.cacheHit,
		PosteriorKept: j.posteriorKept,
		Error:         j.errMsg,
		ErrorCode:     j.errCode,
		Retries:       j.retries,
		FlatFallback:  j.flatFallback,
	}
	if j.warm != nil {
		st.WarmStartFrom = j.warm.jobID
	}
	stamp := func(t time.Time) string {
		if t.IsZero() {
			return ""
		}
		return t.UTC().Format(time.RFC3339Nano)
	}
	st.SubmittedAt = stamp(j.submitted)
	st.StartedAt = stamp(j.started)
	st.FinishedAt = stamp(j.finished)
	return st
}

// result returns the solution when the job is done.
func (j *job) result() (*core.Solution, JobState) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.sol, j.state
}

// setProgress records cycle-level progress from the solver's OnCycle hook.
func (j *job) setProgress(cycle int, rms float64) {
	j.mu.Lock()
	j.cycle = cycle
	j.rmsChange = rms
	j.mu.Unlock()
}

// finish moves the job to a terminal state and wakes any waiters. errCode
// classifies a failure machine-readably (one of the filter codes or
// encode.CodeInternalError); empty for success.
func (j *job) finish(state JobState, errCode, errMsg string, sol *core.Solution) {
	j.mu.Lock()
	if j.state.Terminal() { // already decided (a panic escaping a finished run)
		j.mu.Unlock()
		return
	}
	j.state = state
	j.errCode = errCode
	j.errMsg = errMsg
	j.sol = sol
	j.finished = time.Now()
	j.cancel = nil
	close(j.done)
	j.mu.Unlock()
}

// manager owns the bounded job queue, the processor budget, the job
// records, and the posterior store. Queued jobs wait in one FIFO slice under
// mu; a job arriving and a team coming back each admit from its head, sizing
// the job's processor team from its estimated work — so the configured
// budget bounds processors in use, not jobs in flight: many cheap solves
// run concurrently on one-processor teams while an expensive solve still
// gets a wide one.
type manager struct {
	cfg        Config
	cache      *planCache
	posteriors *posteriorStore
	rec        *trace.Collector
	admit      *admission

	mu       sync.Mutex
	draining bool
	jobs     map[string]*job
	order    []string // submission order, for pruning old records
	nextID   int64
	// queue holds the jobs in StateQueued, in submission order; a job
	// leaves it when it is granted a team or cancelled. headSince is when
	// queue[0] reached the head, the start of its admission wait.
	queue     []*job
	headSince time.Time
	jobsWG    sync.WaitGroup // running job goroutines

	submitted     atomic.Int64
	rejected      atomic.Int64
	retries       atomic.Int64
	panics        atomic.Int64
	flatFallbacks atomic.Int64
}

func newManager(cfg Config) *manager {
	m := &manager{
		cfg:        cfg,
		cache:      newPlanCache(cfg.CacheSize),
		posteriors: newPosteriorStore(cfg.PosteriorBytes, cfg.PosteriorDir),
		rec:        &trace.Collector{},
		admit:      newAdmission(cfg.MaxProcs),
		jobs:       make(map[string]*job),
	}
	// Job ids must stay unique across restarts: reloaded posterior
	// snapshots are keyed by pre-restart job ids, and the posterior store
	// is consulted before the job table, so a fresh counter re-minting an
	// old id would serve the previous incarnation's posterior as the new
	// job's — and clobber its snapshot on completion. Seed the counter past
	// every id the snapshot directory still references.
	m.nextID = m.posteriors.maxJobSeq()
	return m
}

// batchSize returns the request's batch dimension, or the solver's default.
func batchSize(p encode.SolveParams) int {
	if p.BatchSize > 0 {
		return p.BatchSize
	}
	return filter.DefaultBatchSize
}

// jobCost estimates a job's total work with the fitted flop model, the
// same Equation-1 estimate a solve orders its subtrees by — here lifted to
// the admission layer to size the job's team.
func jobCost(p *molecule.Problem, batch int) float64 {
	return workest.FlopModel{}.NodeWork(3*len(p.Atoms), p.ScalarDim(), batch)
}

// startLocked admits jobs from the head of the queue while a processor is
// free, granting each min(width, free) processors and starting it on its
// own goroutine. The caller holds m.mu.
func (m *manager) startLocked() {
	for len(m.queue) > 0 {
		j := m.queue[0]
		want := m.admit.width(jobCost(j.problem, batchSize(j.params)), j.params.Procs)
		procs := m.admit.grant(want, time.Since(m.headSince))
		if procs == 0 {
			return
		}
		m.dequeueLocked(0)
		ctx, cancel := context.WithCancel(context.Background())
		j.mu.Lock()
		j.state = StateRunning
		j.started = time.Now()
		j.cancel = cancel
		j.mu.Unlock()
		m.jobsWG.Add(1)
		go m.runTeam(ctx, cancel, j, procs)
	}
}

// dequeueLocked removes queue[i]; a new head starts its admission wait now.
// The caller holds m.mu.
func (m *manager) dequeueLocked(i int) {
	m.queue = slices.Delete(m.queue, i, i+1)
	if i == 0 {
		m.headSince = time.Now()
	}
}

// runTeam is a job's goroutine. It runs the job on its granted team, then
// returns the team and admits from the queue. It is also the last line of
// defense: a panic escaping the per-attempt recovery (a bug in the
// job-driving code itself) fails the job instead of leaking its grant.
func (m *manager) runTeam(ctx context.Context, cancel context.CancelFunc, j *job, procs int) {
	defer func() {
		if r := recover(); r != nil {
			m.panics.Add(1)
			log.Printf("phmsed: job %s: panic outside solve: %v\n%s", j.id, r, debug.Stack())
			j.finish(StateFailed, encode.CodeInternalError, fmt.Sprintf("internal error: %v", r), nil)
		}
		cancel()
		m.mu.Lock()
		m.admit.release(procs)
		m.startLocked()
		m.mu.Unlock()
		m.jobsWG.Done()
	}()
	m.run(ctx, j, procs)
}

// submit validates queue capacity and registers the job. The queue is
// bounded on jobs awaiting admission: beyond QueueDepth the submission is
// rejected immediately (backpressure) rather than letting latency grow
// without bound. A non-nil warm posterior (already resolved and validated
// against the problem) seeds the solve; topoHash and structHash are the
// problem's encode hashes.
func (m *manager) submit(p *molecule.Problem, params encode.SolveParams, warm *storedPosterior, topoHash, structHash string) (*job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		m.rejected.Add(1)
		return nil, ErrDraining
	}
	if len(m.queue) >= m.cfg.QueueDepth {
		m.rejected.Add(1)
		return nil, ErrQueueFull
	}
	m.nextID++
	// Shard-qualified ids keep the zero-padded per-instance ordering that
	// "after" pagination relies on, while letting the routing tier map any
	// id back to its owning shard.
	j := &job{
		id:         encode.QualifyJob(m.cfg.InstanceID, fmt.Sprintf("job-%06d", m.nextID)),
		shard:      m.cfg.InstanceID,
		problem:    p,
		topoHash:   topoHash,
		structHash: structHash,
		params:     params,
		warm:       warm,
		state:      StateQueued,
		submitted:  time.Now(),
		done:       make(chan struct{}),
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.pruneLocked(maxRecords)
	m.submitted.Add(1)
	if len(m.queue) == 0 {
		m.headSince = j.submitted
	}
	m.queue = append(m.queue, j)
	m.startLocked()
	return j, nil
}

// pruneLocked drops the oldest terminal job records above the retention
// bound so the record map cannot grow without limit. Queued and running
// records are never dropped. The scan starts at the oldest end and stops
// once the bound holds: past the few records still in flight there, to as
// many terminal ones as the bound requires — amortised O(1) per submit, not
// a pass over every record.
func (m *manager) pruneLocked(bound int) {
	excess := len(m.jobs) - bound
	i, kept := 0, 0
	for ; excess > 0 && i < len(m.order); i++ {
		id := m.order[i]
		if _, state := m.jobs[id].result(); state.Terminal() {
			delete(m.jobs, id)
			excess--
			continue
		}
		m.order[kept] = id
		kept++
	}
	// The records kept in flight move up against the rest, in order.
	copy(m.order[i-kept:i], m.order[:kept])
	clear(m.order[:i-kept])
	m.order = m.order[i-kept:]
}

// get returns the job record for an id.
func (m *manager) get(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// requestCancel cancels a job: a queued job leaves the queue and is
// cancelled at once, holding neither a processor nor a queue slot; a
// running job has its context cancelled and stops at the next cycle
// boundary. It reports whether the job existed.
func (m *manager) requestCancel(id string) (*job, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if i := slices.Index(m.queue, j); i >= 0 {
		m.dequeueLocked(i)
		j.finish(StateCancelled, filter.CodeCanceled, "cancelled while queued", nil)
	}
	m.mu.Unlock()
	if ok {
		j.stop()
	}
	return j, ok
}

// stop cancels a running job's context; the solve stops at the next cycle
// boundary.
func (j *job) stop() {
	j.mu.Lock()
	if j.state == StateRunning && j.cancel != nil {
		j.cancel()
	}
	j.mu.Unlock()
}

// run executes one admitted job end to end: an attempt loop that re-runs
// retryable failures at once, one flat-organization fallback when the
// hierarchical solve fails numerically, and a terminal classification of
// whatever error survives. procs, the granted team width, is what every
// attempt solves with.
func (m *manager) run(ctx context.Context, j *job, procs int) {
	if ms := j.params.TimeoutMillis; ms > 0 {
		// One budget across every attempt: retrying must not extend the
		// job's wall-clock bound.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
		defer cancel()
	}

	var sol *core.Solution
	var err error
	for attempt := 0; ; attempt++ {
		sol, err = m.attempt(ctx, j, attempt, false, procs)
		if err == nil || attempt >= maxRetries || !retryable(err, j.warm != nil) || ctx.Err() != nil {
			break
		}
		m.retries.Add(1)
		j.mu.Lock()
		j.retries++
		j.mu.Unlock()
	}

	// Graceful degradation: a hierarchical solve that keeps failing
	// numerically gets one flat-organization attempt — the flat filter
	// trades the hierarchy's speed for a better-conditioned update — before
	// the job is declared failed.
	if err != nil && filter.Transient(err) && ctx.Err() == nil && j.params.Mode != "flat" {
		m.flatFallbacks.Add(1)
		j.mu.Lock()
		j.flatFallback = true
		j.mu.Unlock()
		if fsol, ferr := m.attempt(ctx, j, maxRetries+1, true, procs); ferr == nil {
			sol, err = fsol, nil
		}
	}

	switch {
	case err == nil:
		if j.params.KeepPosterior {
			kept := m.posteriors.put(&storedPosterior{
				jobID:      j.id,
				problem:    j.problem.Name,
				topoHash:   j.topoHash,
				structHash: j.structHash,
				post:       sol.Posterior(),
			})
			j.mu.Lock()
			j.posteriorKept = kept
			j.mu.Unlock()
		}
		// The record keeps what /result reads — positions, variances,
		// counts, diagnostics — and the covariance goes back to the pool.
		sol.Release()
		j.finish(StateDone, "", "", sol)
	case errors.Is(err, context.Canceled):
		j.finish(StateCancelled, filter.CodeCanceled, "cancelled while running", nil)
	case errors.Is(err, context.DeadlineExceeded):
		j.finish(StateFailed, filter.CodeTimeout, fmt.Sprintf("timeout after %d ms", j.params.TimeoutMillis), nil)
	default:
		j.finish(StateFailed, errCode(err), err.Error(), nil)
	}
}

// panicError is a worker panic recovered during one solve attempt,
// carrying the panic value so the job record can report it.
type panicError struct {
	val any
}

func (e *panicError) Error() string { return fmt.Sprintf("internal error: panic: %v", e.val) }

// errCode maps a terminal job error onto its machine-readable class.
func errCode(err error) string {
	var pe *panicError
	if errors.As(err, &pe) {
		return encode.CodeInternalError
	}
	return filter.Code(err)
}

// retryable reports whether a failed attempt is worth re-running: a panic
// may be a data-dependent bug a retry sidesteps, and a cold start's
// transient numerical failure can vanish at the next attempt's starting
// perturbation. A warm start solves the same input on every attempt, so its
// numerical failure would repeat and goes straight to the flat fallback.
// Cancellation, timeouts and malformed problems are final.
func retryable(err error, warm bool) bool {
	var pe *panicError
	return errors.As(err, &pe) || !warm && filter.Transient(err)
}

// attempt runs one solve attempt behind a recover barrier: a panic in the
// solver surfaces as a *panicError with the daemon unharmed. The attempt
// number perturbs a cold start's seed so a retry explores a different basin
// instead of deterministically repeating the failure.
func (m *manager) attempt(ctx context.Context, j *job, attempt int, flat bool, procs int) (sol *core.Solution, err error) {
	defer func() {
		if r := recover(); r != nil {
			m.panics.Add(1)
			log.Printf("phmsed: job %s attempt %d: recovered panic: %v\n%s", j.id, attempt, r, debug.Stack())
			sol, err = nil, &panicError{val: r}
		}
	}()
	if h := faultinject.Installed(); h != nil && h.BeforeAttempt != nil {
		h.BeforeAttempt(j.problem.Name, attempt)
	}
	return m.solve(ctx, j, attempt, flat, procs)
}

// solve builds the estimator (reusing cached planning artifacts when the
// topology was seen before) and runs it under the job's context. flat
// forces the flat organization regardless of the requested mode (the
// numerical-failure fallback path). procs is the admitted team width —
// cost-sized, capped by the request's procs and shrunk under contention.
// It sets how many processors the solve's crew has, not which plan-cache
// entry it uses or what it computes.
func (m *manager) solve(ctx context.Context, j *job, attempt int, flat bool, procs int) (*core.Solution, error) {
	params := j.params
	mode := core.Hierarchical
	if flat || params.Mode == "flat" {
		mode = core.Flat
	}
	batch := batchSize(params)
	cfg := core.Config{
		Mode:          mode,
		Procs:         procs,
		BatchSize:     batch,
		MaxCycles:     params.MaxCycles,
		Tol:           params.Tol,
		AutoDecompose: params.Auto,
		Recorder:      m.rec,
		OnCycle:       j.setProgress,
	}

	key := planKey(j.topoHash, mode, batch, params.Auto)
	art, hit := m.cache.get(key)
	est, fresh, err := core.NewWithPlan(j.problem, cfg, art)
	// Record the hit as soon as it is known so a status poll during the
	// solve already reports it.
	j.mu.Lock()
	j.cacheHit = hit
	j.mu.Unlock()
	if err == nil && !hit {
		m.cache.put(key, fresh)
	}
	if err != nil {
		return nil, fmt.Errorf("building estimator: %w", err)
	}

	// Warm start: continue from the referenced job's posterior instead of
	// the perturbed-prior initialisation.
	var sol *core.Solution
	if j.warm != nil {
		sol, err = est.SolveFrom(ctx, j.warm.post)
	} else {
		perturb := params.Perturb
		if perturb == 0 {
			perturb = 0.5
		} else if perturb < 0 {
			perturb = 0
		}
		seed := params.Seed
		if seed == 0 {
			seed = 1
		}
		// Each retry perturbs from a different seed: a transient numerical
		// failure tied to one starting estimate should not repeat verbatim.
		seed += int64(attempt)
		sol, err = est.SolveContext(ctx, molecule.Perturbed(j.problem, perturb, seed))
	}
	// The prepared tree goes back to the cached artifacts for the next job
	// of the topology; the solution shares nothing with it. A solve that
	// returned, failed or not, left its tree whole; one that panicked never
	// gets here, and its tree is dropped.
	est.Close()
	return sol, err
}

// isDraining reports whether the manager has stopped accepting work.
func (m *manager) isDraining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// list returns submission-ordered status snapshots of retained job
// records, optionally filtered by state, starting strictly after the given
// id, and capped at limit entries. The second return value is the cursor
// for the next page ("" when the listing is exhausted). Job ids are
// zero-padded and assigned in submission order, so "after" pagination is a
// simple lexicographic comparison that stays correct even when the
// referenced record has since been pruned.
func (m *manager) list(state JobState, after string, limit int) ([]JobStatus, string) {
	m.mu.Lock()
	jobs := make([]*job, 0, len(m.order))
	for _, id := range m.order {
		if j := m.jobs[id]; j != nil && (after == "" || id > after) {
			jobs = append(jobs, j)
		}
	}
	m.mu.Unlock()
	out := []JobStatus{}
	next := ""
	for _, j := range jobs {
		st := j.status()
		if state != "" && st.State != state {
			continue
		}
		if len(out) == limit {
			next = out[len(out)-1].ID
			break
		}
		out = append(out, st)
	}
	return out, next
}

// queueDepth returns the number of jobs awaiting admission, the figure both
// the 429 check and /readyz read.
func (m *manager) queueDepth() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queue)
}

// countByState scans the job records and tallies them by state.
func (m *manager) countByState() map[JobState]int {
	m.mu.Lock()
	records := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		records = append(records, j)
	}
	m.mu.Unlock()
	counts := map[JobState]int{
		StateQueued: 0, StateRunning: 0, StateDone: 0, StateFailed: 0, StateCancelled: 0,
	}
	for _, j := range records {
		j.mu.Lock()
		counts[j.state]++
		j.mu.Unlock()
	}
	return counts
}

// shutdown stops intake and drains the queue: already-accepted jobs (both
// running and queued) are allowed to finish. When ctx expires first, every
// queued job is cancelled "during shutdown", every running one has its
// context cancelled, and shutdown waits for the solves to observe it,
// returning ctx's error to signal the forced drain.
func (m *manager) shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()

	// With intake closed, only a finishing job starts another, so the
	// count of running goroutines reaches zero once the queue is empty.
	drained := make(chan struct{})
	go func() {
		m.jobsWG.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
	}
	m.mu.Lock()
	for _, j := range m.queue {
		j.finish(StateCancelled, filter.CodeCanceled, "cancelled during shutdown", nil)
	}
	m.queue = nil
	jobs := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	for _, j := range jobs {
		j.stop()
	}
	<-drained
	return ctx.Err()
}
