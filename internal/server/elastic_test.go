package server

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"phmse/internal/faultinject"
)

// The tentpole guarantee: the processor budget, not a worker count, bounds
// concurrency. The per-job worker pool the scheduler replaced ran a job
// per worker regardless of how cheap the jobs were — at one worker, one
// job at a time. With the
// elastic scheduler the four tiny jobs each coalesce onto a MinTeam-wide
// team and all four run at once inside the same 4-processor budget.
func TestTinyJobConcurrencyExceedsWorkerCeiling(t *testing.T) {
	const tiny = 4
	var (
		arrived atomic.Int32
		allIn   = make(chan struct{})
		release = make(chan struct{})
		once    sync.Once
	)
	releaseAll := func() { once.Do(func() { close(release) }) }
	t.Cleanup(releaseAll)
	faultinject.Set(&faultinject.Hooks{
		BeforeAttempt: func(tag string, attempt int) {
			if n := arrived.Add(1); n == tiny {
				close(allIn)
			}
			<-release
		},
	})
	t.Cleanup(faultinject.Reset)

	srv, _, c := newTestServer(t, Config{
		MaxProcs: tiny, MinTeam: 1, MaxTeam: tiny,
		QueueDepth: 2 * tiny,
	})

	ids := make([]string, tiny)
	for i := range ids {
		ids[i] = submit(t, c, helix(1), quickParams()).ID
	}

	select {
	case <-allIn:
	case <-time.After(120 * time.Second):
		t.Fatalf("only %d of %d tiny jobs reached a solve attempt concurrently; worker count still caps concurrency", arrived.Load(), tiny)
	}

	// All four are blocked inside their solve attempt: the server must
	// report more running jobs than the one-worker pool's ceiling of 1.
	m := srv.Snapshot()
	if m.Jobs.Running <= 1 {
		t.Fatalf("running = %d, want > the old one-worker ceiling of 1", m.Jobs.Running)
	}
	if m.Jobs.Running < tiny {
		t.Fatalf("running = %d, want all %d tiny jobs concurrent", m.Jobs.Running, tiny)
	}
	if got := m.Scheduler.ProcsInUse; got != tiny {
		t.Fatalf("procs in use = %d, want %d (one MinTeam proc per coalesced job)", got, tiny)
	}
	if got := m.Scheduler.Coalesced; got < tiny {
		t.Fatalf("coalesced grants = %d, want >= %d", got, tiny)
	}

	releaseAll()
	for _, id := range ids {
		if st := waitState(t, c, id, StateDone); st.Error != "" {
			t.Fatalf("tiny job %s failed after release: %+v", id, st)
		}
	}
}

// Coalescing must be invisible in the numbers: a tiny job solved on a
// shared MinTeam grant — racing three siblings through the shared
// workspace pool — produces bitwise the same positions as the same job
// solved alone on a dedicated legacy-style team of the same width.
func TestCoalescedResultsBitwiseMatchDedicated(t *testing.T) {
	p := helix(2)

	// Reference: rigid one-job-at-a-time server, dedicated 1-proc team.
	_, _, refc := newTestServer(t, Config{MaxProcs: 1, MaxTeam: 1})
	refID := submit(t, refc, p, quickParams()).ID
	waitState(t, refc, refID, StateDone)
	ref, err := refc.Result(context.Background(), refID)
	if err != nil {
		t.Fatal(err)
	}

	// Elastic: four copies of the job coalesce and run concurrently.
	_, _, c := newTestServer(t, Config{MaxProcs: 4, MinTeam: 1, MaxTeam: 4, QueueDepth: 16})
	const copies = 4
	ids := make([]string, copies)
	for i := range ids {
		ids[i] = submit(t, c, p, quickParams()).ID
	}
	for _, id := range ids {
		waitState(t, c, id, StateDone)
		got, err := c.Result(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cycles != ref.Cycles || got.Residual != ref.Residual {
			t.Fatalf("job %s: cycles/residual %d/%v diverged from dedicated-team reference %d/%v",
				id, got.Cycles, got.Residual, ref.Cycles, ref.Residual)
		}
		if len(got.Positions) != len(ref.Positions) {
			t.Fatalf("job %s: %d positions, reference has %d", id, len(got.Positions), len(ref.Positions))
		}
		for a := range got.Positions {
			if got.Positions[a] != ref.Positions[a] {
				t.Fatalf("job %s atom %d: coalesced %v != dedicated %v", id, a, got.Positions[a], ref.Positions[a])
			}
		}
	}
}

// A job costed above Grain × MaxTeam must be granted the full MaxTeam
// width when the pool is idle — big jobs are not starved down to MinTeam.
func TestLargeJobGetsWideTeam(t *testing.T) {
	srv, _, c := newTestServer(t, Config{MaxProcs: 4, MinTeam: 1, MaxTeam: 4, TeamGrain: 1})
	// Grain 1 makes even the tiny helix cost to the MaxTeam clamp.
	id := submit(t, c, helix(2), quickParams()).ID
	waitState(t, c, id, StateDone)
	m := srv.Snapshot()
	if m.Scheduler.Grants < 1 {
		t.Fatalf("grants = %d, want >= 1", m.Scheduler.Grants)
	}
	if m.Scheduler.Coalesced != 0 {
		t.Fatalf("coalesced = %d; a Grain-1 job must size above MinTeam", m.Scheduler.Coalesced)
	}
}

// The scheduler and workspace-pool gauges ride the existing /metrics
// endpoint; this pins their wire presence and internal consistency.
func TestMetricsExposeSchedulerAndPool(t *testing.T) {
	_, ts, c := newTestServer(t, Config{MaxProcs: 4, MinTeam: 1, MaxTeam: 4})
	for i := 0; i < 3; i++ {
		id := submit(t, c, helix(1), quickParams()).ID
		waitState(t, c, id, StateDone)
	}

	var m Metrics
	if code := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &m); code != http.StatusOK {
		t.Fatalf("/metrics: http %d", code)
	}
	s := m.Scheduler
	if s.ProcsCapacity != 4 || s.MinTeam != 1 || s.MaxTeam != 4 {
		t.Fatalf("scheduler shape = cap %d, min %d, max %d; want 4/1/4", s.ProcsCapacity, s.MinTeam, s.MaxTeam)
	}
	if s.Grants < 3 {
		t.Fatalf("grants = %d, want >= 3", s.Grants)
	}
	if s.QueueWaitCount != s.Grants {
		t.Fatalf("queue_wait_count = %d, want one observation per grant (%d)", s.QueueWaitCount, s.Grants)
	}
	var sum int64
	for _, n := range s.QueueWait {
		sum += n
	}
	if sum != s.QueueWaitCount {
		t.Fatalf("queue-wait bucket sum = %d, want %d", sum, s.QueueWaitCount)
	}
	if s.ProcsInUse != 0 || s.TeamsActive != 0 {
		t.Fatalf("idle server reports procs_in_use %d, teams_active %d; grants leaked", s.ProcsInUse, s.TeamsActive)
	}
	if m.WorkspacePool.Gets < 1 || m.WorkspacePool.Puts < 1 {
		t.Fatalf("workspace pool gets/puts = %d/%d, want both > 0", m.WorkspacePool.Gets, m.WorkspacePool.Puts)
	}
}

// Per-job Procs in the submit params still caps that job's team below
// what the cost model would request — the client override survives the
// elastic rewrite.
func TestParamsProcsCapsGrant(t *testing.T) {
	srv, _, c := newTestServer(t, Config{MaxProcs: 4, MinTeam: 2, MaxTeam: 4, TeamGrain: 1})
	params := quickParams()
	params.Procs = 1
	id := submit(t, c, helix(2), params).ID
	waitState(t, c, id, StateDone)
	// Grain 1 would size the job to MaxTeam, but params.Procs=1 caps the
	// request; MinTeam clamping keeps the grant at the scheduler floor.
	m := srv.Snapshot()
	if m.Scheduler.Coalesced < 1 {
		t.Fatalf("coalesced = %d; params.Procs=1 must pull the request down to MinTeam", m.Scheduler.Coalesced)
	}
}
