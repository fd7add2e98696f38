package sched

import (
	"context"
	"sync/atomic"
	"time"

	"phmse/internal/par"
)

// ElasticConfig sizes a TeamScheduler.
type ElasticConfig struct {
	// MaxProcs is the total processor budget shared by all jobs.
	MaxProcs int
	// MinTeam is the smallest team a job may run on (default 1). Tiny
	// jobs are granted exactly MinTeam, so MaxProcs/MinTeam of them can
	// run concurrently.
	MinTeam int
	// MaxTeam caps any single job's team width (default MaxProcs).
	MaxTeam int
	// Grain is the estimated work (in FlopModel units) worth one
	// processor: a job of cost k×Grain asks for a k-wide team before
	// clamping. Zero selects DefaultGrain.
	Grain float64
}

// DefaultGrain is the per-processor work quantum used when
// ElasticConfig.Grain is zero. A helix on the order of a thousand base
// pairs lands at a few processors under the fitted flop model, matching
// the static assignment the paper's Table 2 runs used.
const DefaultGrain = 1e8

// TeamScheduler is the cost-aware admission layer in front of a shared
// par.ProcPool. Each job declares its estimated work; the scheduler turns
// that into a desired team width via the work-estimator grain (the
// service-layer analogue of the paper's Equation 1 static processor
// assignment), then leases an elastic grant from the pool: tiny jobs
// coalesce onto MinTeam-wide teams running concurrently, large jobs get
// wide teams, and under contention grants shrink rather than queue.
type TeamScheduler struct {
	pool    *par.ProcPool
	minTeam int
	maxTeam int
	grain   float64

	grants    atomic.Int64
	coalesced atomic.Int64
	shrunk    atomic.Int64

	waitBuckets [len(waitBounds) + 1]atomic.Int64
	waitCount   atomic.Int64
	waitSumNs   atomic.Int64
}

// waitBounds are the queue-wait histogram bucket upper bounds.
var waitBounds = [...]time.Duration{
	100 * time.Microsecond,
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
}

// WaitBucketLabels names the histogram buckets, in order, as served by
// /metrics.
var WaitBucketLabels = [...]string{
	"lt_100us", "lt_1ms", "lt_10ms", "lt_100ms", "lt_1s", "ge_1s",
}

// NewTeamScheduler builds a scheduler over a fresh processor pool.
func NewTeamScheduler(cfg ElasticConfig) *TeamScheduler {
	if cfg.MaxProcs < 1 {
		cfg.MaxProcs = 1
	}
	if cfg.MinTeam < 1 {
		cfg.MinTeam = 1
	}
	if cfg.MinTeam > cfg.MaxProcs {
		cfg.MinTeam = cfg.MaxProcs
	}
	if cfg.MaxTeam < cfg.MinTeam {
		cfg.MaxTeam = cfg.MaxProcs
	}
	if cfg.MaxTeam > cfg.MaxProcs {
		cfg.MaxTeam = cfg.MaxProcs
	}
	if cfg.Grain <= 0 {
		cfg.Grain = DefaultGrain
	}
	return &TeamScheduler{
		pool:    par.NewProcPool(cfg.MaxProcs),
		minTeam: cfg.MinTeam,
		maxTeam: cfg.MaxTeam,
		grain:   cfg.Grain,
	}
}

// MinTeam returns the configured minimum team width.
func (s *TeamScheduler) MinTeam() int { return s.minTeam }

// MaxTeam returns the configured maximum team width.
func (s *TeamScheduler) MaxTeam() int { return s.maxTeam }

// SizeFor converts an estimated job cost into a desired team width:
// floor(cost/Grain) clamped to [MinTeam, MaxTeam].
func (s *TeamScheduler) SizeFor(cost float64) int {
	k := int(cost / s.grain)
	if k < s.minTeam {
		return s.minTeam
	}
	if k > s.maxTeam {
		return s.maxTeam
	}
	return k
}

// Grant is an admitted job's share of the processor budget.
type Grant struct {
	lease *par.Lease
	// Procs is the width actually granted.
	Procs int
	// Wait is how long admission blocked.
	Wait time.Duration
	// Coalesced reports that the job was sized at MinTeam — a tiny job
	// sharing the pool with other tiny jobs rather than owning workers.
	Coalesced bool
}

// Release returns the grant's processors to the pool. Idempotent.
func (g *Grant) Release() { g.lease.Release() }

// Acquire admits a job wanting a team of the given width (normally from
// SizeFor), blocking until at least MinTeam processors are free or ctx
// ends. The grant is elastic: under contention the team shrinks to the
// free share of the pool, never below MinTeam.
func (s *TeamScheduler) Acquire(ctx context.Context, want int) (*Grant, error) {
	if want < s.minTeam {
		want = s.minTeam
	}
	if want > s.maxTeam {
		want = s.maxTeam
	}
	start := time.Now()
	lease, err := s.pool.Acquire(ctx, want, s.minTeam)
	if err != nil {
		return nil, err
	}
	wait := time.Since(start)
	s.grants.Add(1)
	s.observeWait(wait)
	coalesced := want == s.minTeam
	if coalesced {
		s.coalesced.Add(1)
	}
	if lease.Size() < want {
		s.shrunk.Add(1)
	}
	return &Grant{lease: lease, Procs: lease.Size(), Wait: wait, Coalesced: coalesced}, nil
}

func (s *TeamScheduler) observeWait(d time.Duration) {
	i := 0
	for i < len(waitBounds) && d >= waitBounds[i] {
		i++
	}
	s.waitBuckets[i].Add(1)
	s.waitCount.Add(1)
	s.waitSumNs.Add(int64(d))
}

// Stats is a point-in-time snapshot of the scheduler, served by /metrics.
type Stats struct {
	ProcsCapacity int   `json:"procs_capacity"`
	ProcsInUse    int   `json:"procs_in_use"`
	TeamsActive   int   `json:"teams_active"`
	Waiting       int   `json:"waiting"`
	MinTeam       int   `json:"min_team"`
	MaxTeam       int   `json:"max_team"`
	Grants        int64 `json:"grants"`
	Coalesced     int64 `json:"coalesced"`
	Shrunk        int64 `json:"shrunk"`

	// QueueWait is the admission-wait histogram: bucket label → count,
	// plus total count and mean in milliseconds.
	QueueWait       map[string]int64 `json:"queue_wait"`
	QueueWaitCount  int64            `json:"queue_wait_count"`
	QueueWaitMeanMs float64          `json:"queue_wait_mean_ms"`
}

// Snapshot returns the current scheduler statistics.
func (s *TeamScheduler) Snapshot() Stats {
	st := Stats{
		ProcsCapacity: s.pool.Capacity(),
		ProcsInUse:    s.pool.InUse(),
		TeamsActive:   s.pool.Leases(),
		Waiting:       s.pool.Waiting(),
		MinTeam:       s.minTeam,
		MaxTeam:       s.maxTeam,
		Grants:        s.grants.Load(),
		Coalesced:     s.coalesced.Load(),
		Shrunk:        s.shrunk.Load(),
		QueueWait:     make(map[string]int64, len(WaitBucketLabels)),
	}
	for i := range s.waitBuckets {
		st.QueueWait[WaitBucketLabels[i]] = s.waitBuckets[i].Load()
	}
	st.QueueWaitCount = s.waitCount.Load()
	if n := st.QueueWaitCount; n > 0 {
		st.QueueWaitMeanMs = float64(s.waitSumNs.Load()) / float64(n) / 1e6
	}
	return st
}
