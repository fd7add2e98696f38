package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"phmse/internal/core"
	"phmse/internal/encode"
	"phmse/internal/faultinject"
	"phmse/internal/filter"
	"phmse/internal/molecule"
	"phmse/internal/sched"
	"phmse/internal/solvererr"
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
	sol           *core.Solution
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
		Constraints:   len(j.problem.Constraints),
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
// classifies a failure machine-readably (one of the solvererr codes or
// encode.CodeInternalError); empty for success.
func (j *job) finish(state JobState, errCode, errMsg string, sol *core.Solution) {
	j.mu.Lock()
	if j.state.Terminal() { // already decided (e.g. cancelled while queued)
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

// manager owns the bounded job queue, the elastic solver-team scheduler,
// the job records, and the posterior store. A single dispatcher goroutine
// pulls submissions off the queue and admits each through the scheduler,
// which sizes its processor team from the job's estimated work — so the
// configured processor budget bounds processors in use, not jobs in
// flight: many cheap solves run concurrently on minimum-width teams while
// an expensive solve still gets a wide one.
type manager struct {
	cfg        Config
	cache      *planCache
	posteriors *posteriorStore
	rec        *trace.Collector
	sched      *sched.TeamScheduler

	mu       sync.Mutex
	draining bool
	jobs     map[string]*job
	order    []string // submission order, for pruning old records
	nextID   int64

	queue chan *job
	// queuedCount tracks jobs in StateQueued — including the one the
	// dispatcher has pulled off the channel but not yet admitted — so
	// backpressure keys on jobs actually waiting, not channel occupancy.
	queuedCount atomic.Int64
	// dispatchCancel aborts an admission wait during forced shutdown.
	dispatchCtx    context.Context
	dispatchCancel context.CancelFunc
	wg             sync.WaitGroup // dispatcher
	jobsWG         sync.WaitGroup // in-flight job goroutines

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
		sched: sched.NewTeamScheduler(sched.ElasticConfig{
			MaxProcs: cfg.MaxProcs,
			MinTeam:  cfg.MinTeam,
			MaxTeam:  cfg.MaxTeam,
			Grain:    cfg.TeamGrain,
		}),
		jobs: make(map[string]*job),
		// The channel is sized past QueueDepth because cancelled-while-
		// queued jobs linger in it until the dispatcher skips them; the
		// queuedCount gate in submit is the real bound.
		queue: make(chan *job, 2*cfg.QueueDepth+16),
	}
	m.dispatchCtx, m.dispatchCancel = context.WithCancel(context.Background())
	// Job ids must stay unique across restarts: reloaded posterior
	// snapshots are keyed by pre-restart job ids, and the posterior store
	// is consulted before the job table, so a fresh counter re-minting an
	// old id would serve the previous incarnation's posterior as the new
	// job's — and clobber its snapshot on completion. Seed the counter past
	// every id the snapshot directory still references.
	m.nextID = m.posteriors.maxJobSeq()
	m.wg.Add(1)
	go m.dispatcher()
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
// same Equation-1 estimate that drives static processor assignment inside
// a solve — here lifted to the admission layer to size the job's team.
func jobCost(p *molecule.Problem, batch int) float64 {
	scalars := 0
	for _, c := range p.Constraints {
		scalars += c.Dim()
	}
	return workest.FlopModel{}.NodeWork(3*len(p.Atoms), scalars, batch)
}

// dispatcher admits queued jobs through the elastic scheduler in FIFO
// order and runs each on its own goroutine with the granted team width.
func (m *manager) dispatcher() {
	defer m.wg.Done()
	for j := range m.queue {
		if j.terminal() { // cancelled while queued
			continue
		}
		want := m.sched.SizeFor(jobCost(j.problem, batchSize(j.params)))
		// The request may ask for fewer processors than the estimate.
		if p := j.params.Procs; p > 0 && p < want {
			want = p
		}
		grant, err := m.sched.Acquire(m.dispatchCtx, want)
		if err != nil {
			// Forced shutdown: the admission wait was aborted.
			m.cancelIfQueued(j, "cancelled during shutdown")
			continue
		}
		m.jobsWG.Add(1)
		go func(j *job, g *sched.Grant) {
			defer m.jobsWG.Done()
			defer g.Release()
			m.runIsolated(j, g)
		}(j, grant)
	}
}

// runIsolated is the job goroutine's last line of defense: a panic
// escaping the per-attempt recovery (a bug in the job-driving code itself)
// fails the job instead of leaking its team grant.
func (m *manager) runIsolated(j *job, g *sched.Grant) {
	defer func() {
		if r := recover(); r != nil {
			m.panics.Add(1)
			log.Printf("phmsed: job %s: panic outside solve: %v\n%s", j.id, r, debug.Stack())
			j.finish(StateFailed, encode.CodeInternalError, fmt.Sprintf("internal error: %v", r), nil)
		}
	}()
	m.run(j, g)
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
	if int(m.queuedCount.Load()) >= m.cfg.QueueDepth {
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
	select {
	case m.queue <- j:
	default:
		// Headroom exhausted by cancelled jobs the dispatcher has not yet
		// skipped — treat as a full queue.
		m.rejected.Add(1)
		return nil, ErrQueueFull
	}
	m.queuedCount.Add(1)
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.pruneLocked()
	m.submitted.Add(1)
	return j, nil
}

// pruneLocked drops the oldest terminal job records above the retention
// bound so the record map cannot grow without limit.
func (m *manager) pruneLocked() {
	if len(m.jobs) <= m.cfg.MaxRecords {
		return
	}
	kept := m.order[:0]
	for _, id := range m.order {
		j := m.jobs[id]
		if j == nil {
			continue
		}
		if len(m.jobs) > m.cfg.MaxRecords && j.terminal() {
			delete(m.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state == StateDone || j.state == StateFailed || j.state == StateCancelled
}

// get returns the job record for an id.
func (m *manager) get(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// cancelIfQueued moves a still-queued job to cancelled (the dispatcher
// skips it when dequeued) and reports whether it did. Exiting StateQueued
// here pairs with the queuedCount increment in submit.
func (m *manager) cancelIfQueued(j *job, msg string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateCancelled
	j.errCode = solvererr.CodeCanceled
	j.errMsg = msg
	j.finished = time.Now()
	close(j.done)
	m.queuedCount.Add(-1)
	return true
}

// requestCancel cancels a job: queued jobs move to cancelled immediately
// (the dispatcher skips them when dequeued), running jobs have their
// context cancelled and stop at the next cycle boundary. It reports
// whether the job existed.
func (m *manager) requestCancel(id string) (*job, bool) {
	j, ok := m.get(id)
	if !ok {
		return nil, false
	}
	if m.cancelIfQueued(j, "cancelled while queued") {
		return j, true
	}
	j.mu.Lock()
	if j.state == StateRunning && j.cancel != nil {
		j.cancel()
	}
	j.mu.Unlock()
	return j, true
}

// run executes one admitted job end to end: an attempt loop with capped
// exponential backoff for transient failures, one flat-organization
// fallback when the hierarchical solve fails numerically, and a terminal
// classification of whatever error survives. The grant fixes the
// processor-team width every attempt solves with.
func (m *manager) run(j *job, g *sched.Grant) {
	ctx := context.Background()
	var timeoutCancel context.CancelFunc
	if ms := j.params.TimeoutMillis; ms > 0 {
		// One budget across every attempt: retrying must not extend the
		// job's wall-clock bound.
		ctx, timeoutCancel = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
		defer timeoutCancel()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	j.mu.Lock()
	if j.state != StateQueued { // cancelled while waiting in the queue
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	m.queuedCount.Add(-1)
	j.mu.Unlock()

	var sol *core.Solution
	var err error
	for attempt := 0; ; attempt++ {
		sol, err = m.attempt(ctx, j, attempt, false, g.Procs)
		if err == nil || attempt >= m.cfg.MaxRetries || !retryable(err) || ctx.Err() != nil {
			break
		}
		m.retries.Add(1)
		j.mu.Lock()
		j.retries++
		j.mu.Unlock()
		delay := m.cfg.RetryBackoff << attempt
		if max := 32 * m.cfg.RetryBackoff; delay > max {
			delay = max
		}
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
		}
	}

	// Graceful degradation: a hierarchical solve that keeps failing
	// numerically gets one flat-organization attempt — the flat filter
	// trades the hierarchy's speed for a better-conditioned update — before
	// the job is declared failed.
	if err != nil && solvererr.Transient(err) && ctx.Err() == nil && j.params.Mode != "flat" {
		m.flatFallbacks.Add(1)
		j.mu.Lock()
		j.flatFallback = true
		j.mu.Unlock()
		if fsol, ferr := m.attempt(ctx, j, m.cfg.MaxRetries+1, true, g.Procs); ferr == nil {
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
		j.finish(StateDone, "", "", sol)
	case errors.Is(err, context.Canceled):
		j.finish(StateCancelled, solvererr.CodeCanceled, "cancelled while running", nil)
	case errors.Is(err, context.DeadlineExceeded):
		j.finish(StateFailed, solvererr.CodeTimeout, fmt.Sprintf("timeout after %d ms", j.params.TimeoutMillis), nil)
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
	return solvererr.Code(err)
}

// retryable reports whether a failed attempt is worth re-running: transient
// numerical failures can vanish at a different starting perturbation, and a
// panic may be a data-dependent bug a retry sidesteps. Cancellation,
// timeouts and malformed problems are final.
func retryable(err error) bool {
	var pe *panicError
	return solvererr.Transient(err) || errors.As(err, &pe)
}

// attempt runs one solve attempt behind a recover barrier: a panic in the
// solver surfaces as a *panicError with the daemon unharmed. The attempt
// number perturbs the starting estimate's seed so a retry explores a
// different basin instead of deterministically repeating the failure.
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
// the scheduler's cost-sized, contention-shrunk grant — though the
// request may still ask for fewer.
func (m *manager) solve(ctx context.Context, j *job, attempt int, flat bool, procs int) (*core.Solution, error) {
	params := j.params
	mode := core.Hierarchical
	if flat || params.Mode == "flat" {
		mode = core.Flat
	}
	if p := params.Procs; p > 0 && p < procs {
		procs = p
	}
	if procs < 1 {
		procs = 1
	}
	batch := batchSize(params)
	const leafSize = core.DefaultLeafSize

	cfg := core.Config{
		Mode:          mode,
		Procs:         procs,
		BatchSize:     batch,
		MaxCycles:     params.MaxCycles,
		Tol:           params.Tol,
		AutoDecompose: params.Auto,
		LeafSize:      leafSize,
		Recorder:      m.rec,
		OnCycle:       j.setProgress,
	}

	var est *core.Estimator
	var err error
	if mode == core.Flat {
		est, err = core.New(j.problem, cfg)
	} else {
		key := planKey(j.topoHash, mode, procs, batch, leafSize, params.Auto)
		art, hit := m.cache.get(key)
		var fresh *core.PlanArtifacts
		est, fresh, err = core.NewWithPlan(j.problem, cfg, art)
		// Record the hit as soon as it is known so a status poll during
		// the solve already reports it.
		j.mu.Lock()
		j.cacheHit = hit
		j.mu.Unlock()
		if err == nil && !hit {
			m.cache.put(key, fresh)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("building estimator: %w", err)
	}

	// Warm start: continue from the referenced job's posterior instead of
	// the perturbed-prior initialisation.
	if j.warm != nil {
		return est.SolveFrom(ctx, j.warm.post)
	}
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
	init := molecule.Perturbed(j.problem, perturb, seed)
	return est.SolveContext(ctx, init)
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

// queueDepth returns the number of jobs awaiting admission (in
// StateQueued, whether still in the channel or blocked at the scheduler).
func (m *manager) queueDepth() int { return int(m.queuedCount.Load()) }

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
// remaining job is cancelled — including any blocked at the scheduler's
// admission wait — and shutdown waits for the work to observe the
// cancellation, returning ctx's error to signal the forced drain.
func (m *manager) shutdown(ctx context.Context) error {
	m.mu.Lock()
	already := m.draining
	m.draining = true
	if !already {
		close(m.queue)
	}
	m.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		// The dispatcher exits once the closed queue is empty; only then is
		// the set of job goroutines final.
		m.wg.Wait()
		m.jobsWG.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
	}
	// Forced drain: abort admission waits, cancel everything still alive,
	// and wait for the work to wind down (running solves observe the
	// cancellation at the next cycle boundary).
	m.dispatchCancel()
	m.mu.Lock()
	ids := make([]string, 0, len(m.jobs))
	for id := range m.jobs {
		ids = append(ids, id)
	}
	m.mu.Unlock()
	for _, id := range ids {
		m.requestCancel(id)
	}
	<-drained
	return ctx.Err()
}
