package server

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// teamGrain is the estimated work (workest.FlopModel units) worth one
// processor: a job of cost k×teamGrain asks for a k-wide team before
// clamping. A helix on the order of a thousand base pairs lands at a few
// processors, matching the static assignment the paper's Table 2 runs used.
const teamGrain = 1e8

// waitBounds are the queue-wait histogram's bucket upper bounds, and
// waitLabels name the buckets, one more than the bounds, as /metrics
// serves them.
var (
	waitBounds = [...]time.Duration{
		100 * time.Microsecond,
		time.Millisecond,
		10 * time.Millisecond,
		100 * time.Millisecond,
		time.Second,
	}
	waitLabels = [len(waitBounds) + 1]string{
		"lt_100us", "lt_1ms", "lt_10ms", "lt_100ms", "lt_1s", "ge_1s",
	}
)

// admission is the daemon's processor budget, the serving-layer analogue of
// the paper's Equation 1 static assignment (§4.3): each job is sized once
// from its estimated work, and the budget bounds processors in use, not
// jobs in flight, so many cheap solves run at once on one-processor teams
// while an expensive solve still gets a wide one.
//
// The dispatcher is the only caller of acquire, one job at a time in
// submission order, so there is never more than one waiter and admission
// order is the job queue's order. Job goroutines call release.
type admission struct {
	capacity int
	maxTeam  int
	// freed holds one pending "processors came back" signal, so release
	// never blocks and a release that lands before the dispatcher parks is
	// not lost.
	freed chan struct{}

	mu      sync.Mutex
	inUse   int
	teams   int
	waiting bool

	grants    atomic.Int64
	coalesced atomic.Int64
	shrunk    atomic.Int64

	waitBuckets [len(waitLabels)]atomic.Int64
	waitCount   atomic.Int64
	waitSumNs   atomic.Int64
}

// newAdmission returns a budget of capacity processors granting teams of
// at most maxTeam (1 ≤ maxTeam ≤ capacity, as Config.withDefaults leaves
// them).
func newAdmission(capacity, maxTeam int) *admission {
	return &admission{capacity: capacity, maxTeam: maxTeam, freed: make(chan struct{}, 1)}
}

// width sizes a job's team from its estimated cost: one processor per
// teamGrain, clamped to [1, maxTeam], and no wider than procs, the
// request's own cap, when that is positive.
func (a *admission) width(cost float64, procs int) int {
	k := a.maxTeam
	if c := cost / teamGrain; c < float64(k) {
		k = max(1, int(c))
	}
	if procs > 0 && procs < k {
		k = procs
	}
	return k
}

// acquire grants a team of min(want, free) processors as soon as at least
// one is free, blocking until then or until ctx ends. want is a width from
// width, so 1 ≤ want ≤ capacity.
func (a *admission) acquire(ctx context.Context, want int) (int, error) {
	start := time.Now()
	for {
		a.mu.Lock()
		if free := a.capacity - a.inUse; free >= 1 {
			k := min(want, free)
			a.inUse += k
			a.teams++
			a.waiting = false
			a.mu.Unlock()
			a.observe(want, k, time.Since(start))
			return k, nil
		}
		a.waiting = true
		a.mu.Unlock()
		select {
		case <-a.freed:
		case <-ctx.Done():
			a.mu.Lock()
			a.waiting = false
			a.mu.Unlock()
			return 0, ctx.Err()
		}
	}
}

// release returns a team of k processors to the budget.
func (a *admission) release(k int) {
	a.mu.Lock()
	a.inUse -= k
	a.teams--
	a.mu.Unlock()
	select {
	case a.freed <- struct{}{}:
	default:
	}
}

// observe counts one grant of k processors against a request for want,
// after a queue wait of d.
func (a *admission) observe(want, k int, d time.Duration) {
	a.grants.Add(1)
	if want == 1 {
		a.coalesced.Add(1)
	}
	if k < want {
		a.shrunk.Add(1)
	}
	i := 0
	for i < len(waitBounds) && d >= waitBounds[i] {
		i++
	}
	a.waitBuckets[i].Add(1)
	a.waitCount.Add(1)
	a.waitSumNs.Add(int64(d))
}

// MetricsScheduler is the /metrics view of the processor budget:
// utilization, active teams, the grant, coalesce (a one-processor team) and
// shrink (granted below the sized width) counters, and the admission
// queue-wait histogram — bucket label → count, with the total count and the
// mean in milliseconds.
type MetricsScheduler struct {
	ProcsCapacity int   `json:"procs_capacity"`
	ProcsInUse    int   `json:"procs_in_use"`
	TeamsActive   int   `json:"teams_active"`
	Waiting       int   `json:"waiting"`
	MaxTeam       int   `json:"max_team"`
	Grants        int64 `json:"grants"`
	Coalesced     int64 `json:"coalesced"`
	Shrunk        int64 `json:"shrunk"`

	QueueWait       map[string]int64 `json:"queue_wait"`
	QueueWaitCount  int64            `json:"queue_wait_count"`
	QueueWaitMeanMs float64          `json:"queue_wait_mean_ms"`
}

// snapshot returns the budget's current metrics.
func (a *admission) snapshot() MetricsScheduler {
	a.mu.Lock()
	st := MetricsScheduler{
		ProcsCapacity: a.capacity,
		ProcsInUse:    a.inUse,
		TeamsActive:   a.teams,
		MaxTeam:       a.maxTeam,
	}
	if a.waiting {
		st.Waiting = 1
	}
	a.mu.Unlock()
	st.Grants = a.grants.Load()
	st.Coalesced = a.coalesced.Load()
	st.Shrunk = a.shrunk.Load()
	st.QueueWait = make(map[string]int64, len(waitLabels))
	for i := range a.waitBuckets {
		st.QueueWait[waitLabels[i]] = a.waitBuckets[i].Load()
	}
	st.QueueWaitCount = a.waitCount.Load()
	if n := st.QueueWaitCount; n > 0 {
		st.QueueWaitMeanMs = float64(a.waitSumNs.Load()) / float64(n) / 1e6
	}
	return st
}
