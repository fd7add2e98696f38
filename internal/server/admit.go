package server

import (
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
// Nothing waits on it: the manager calls grant for the head of its job
// queue, under its own lock, whenever a job arrives or a team comes back,
// so admission order is the queue's order. Job goroutines call release.
type admission struct {
	capacity int

	mu    sync.Mutex
	inUse int
	teams int

	grants    atomic.Int64
	coalesced atomic.Int64
	shrunk    atomic.Int64

	waitBuckets [len(waitLabels)]atomic.Int64
	waitCount   atomic.Int64
	waitSumNs   atomic.Int64
}

// newAdmission returns a budget of capacity ≥ 1 processors.
func newAdmission(capacity int) *admission {
	return &admission{capacity: capacity}
}

// width sizes a job's team from its estimated cost: one processor per
// teamGrain, clamped to [1, capacity], and no wider than procs, the
// request's own cap, when that is positive.
func (a *admission) width(cost float64, procs int) int {
	k := a.capacity
	if c := cost / teamGrain; c < float64(k) {
		k = max(1, int(c))
	}
	if procs > 0 && procs < k {
		k = procs
	}
	return k
}

// grant gives a team of min(want, free) processors, or 0 when none is
// free. want is a width from width; wait is how long the job has been at
// the head of the queue, for the histogram.
func (a *admission) grant(want int, wait time.Duration) int {
	a.mu.Lock()
	k := min(want, a.capacity-a.inUse)
	if k > 0 {
		a.inUse += k
		a.teams++
	}
	a.mu.Unlock()
	if k > 0 {
		a.observe(want, k, wait)
	}
	return k
}

// release returns a team of k processors to the budget.
func (a *admission) release(k int) {
	a.mu.Lock()
	a.inUse -= k
	a.teams--
	a.mu.Unlock()
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
// utilization, active teams, whether a job waits at the head of the queue,
// the grant, coalesce (a one-processor team) and shrink (granted below the
// sized width) counters, and the admission queue-wait histogram — bucket
// label → count, with the total count and the mean in milliseconds.
type MetricsScheduler struct {
	ProcsCapacity int   `json:"procs_capacity"`
	ProcsInUse    int   `json:"procs_in_use"`
	TeamsActive   int   `json:"teams_active"`
	Waiting       int   `json:"waiting"`
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
