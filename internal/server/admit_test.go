package server

import (
	"context"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"phmse/internal/client"
	"phmse/internal/encode"
	"phmse/internal/faultinject"
)

// holdJobs parks every solve attempt of a problem named tag until the
// returned release is called, and at cleanup. Call it after newTestServer,
// so the cleanup releases held jobs before the server's forced drain waits
// for them.
func holdJobs(t *testing.T, tag string) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	faultinject.Set(&faultinject.Hooks{
		BeforeAttempt: func(got string, attempt int) {
			if got == tag {
				<-gate
			}
		},
	})
	t.Cleanup(faultinject.Reset)
	t.Cleanup(release)
	return release
}

// waitIdle waits until every team is back and the queue is empty: a job
// turns terminal just before its goroutine returns its processors.
func waitIdle(t *testing.T, srv *Server) {
	t.Helper()
	eventually(t, "an idle budget", func() bool {
		m := srv.Snapshot()
		return m.Scheduler.ProcsInUse == 0 && m.Scheduler.TeamsActive == 0 && m.Queue.Depth == 0
	})
}

// grantEventually retries a grant until a processor is free, as the
// manager does each time a team comes back.
func grantEventually(a *admission, want int) int {
	for {
		if k := a.grant(want, 0); k > 0 {
			return k
		}
		runtime.Gosched()
	}
}

// Sizing: one processor per grain, clamped to [1, capacity], and the
// request's procs caps it further when positive.
func TestAdmissionWidth(t *testing.T) {
	a := newAdmission(8)
	cases := []struct {
		cost  float64
		procs int
		want  int
	}{
		{0, 0, 1},                 // below one grain → 1
		{0.99 * teamGrain, 0, 1},  // still below
		{teamGrain, 0, 1},         // exactly one grain
		{2.5 * teamGrain, 0, 2},   // floor(2.5)
		{4 * teamGrain, 0, 4},     // exact
		{1e30, 0, 8},              // clamped to the capacity
		{-5, 0, 1},                // nonsense cost → 1
		{1e30, 3, 3},              // procs caps the width
		{1e30, 20, 8},             // a procs above the capacity changes nothing
		{2.5 * teamGrain, -1, 2},  // non-positive procs is no cap
		{0.5 * teamGrain, 4, 1},   // procs never widens a team
		{6 * teamGrain, 1, 1},     // procs 1: a coalesced team
		{100 * teamGrain, 8, 8},   // procs at the capacity
		{7.999 * teamGrain, 0, 7}, // floor, not round
	}
	for _, c := range cases {
		if got := a.width(c.cost, c.procs); got != c.want {
			t.Errorf("width(%g, procs %d) = %d, want %d", c.cost, c.procs, got, c.want)
		}
	}
}

func TestAdmissionAccounting(t *testing.T) {
	a := newAdmission(8)
	if s := a.snapshot(); s.ProcsCapacity != 8 || s.ProcsInUse != 0 || s.TeamsActive != 0 {
		t.Fatalf("fresh budget: %+v", s)
	}
	k := a.grant(4, 0)
	if k != 4 {
		t.Fatalf("grant %d, want 4", k)
	}
	if s := a.snapshot(); s.ProcsInUse != 4 || s.TeamsActive != 1 || s.Grants != 1 || s.Shrunk != 0 || s.Coalesced != 0 {
		t.Fatalf("after grant: %+v", s)
	}
	a.release(k)
	if s := a.snapshot(); s.ProcsInUse != 0 || s.TeamsActive != 0 {
		t.Fatalf("after release: %+v", s)
	}
}

// Under contention a grant shrinks to the free share at once instead of
// waiting for its full width; with nothing free it grants nothing and
// counts nothing.
func TestAdmissionShrinksToFree(t *testing.T) {
	a := newAdmission(8)
	tiny := a.grant(1, 0)
	wide := a.grant(5, 0)
	if tiny != 1 || wide != 5 {
		t.Fatalf("grants %d, %d; want 1, 5", tiny, wide)
	}
	// Only 2 free: an 8-wide request shrinks to 2 immediately.
	small := a.grant(8, 0)
	if small != 2 {
		t.Fatalf("shrunk grant %d, want 2", small)
	}
	if k := a.grant(1, 0); k != 0 {
		t.Fatalf("granted %d with nothing free", k)
	}
	s := a.snapshot()
	if s.Grants != 3 || s.Coalesced != 1 || s.Shrunk != 1 || s.ProcsInUse != 8 || s.TeamsActive != 3 || s.QueueWaitCount != 3 {
		t.Fatalf("counters: %+v", s)
	}
	a.release(tiny)
	a.release(wide)
	a.release(small)
}

// A wide job that arrives while a tiny one runs is granted what is left,
// counted as shrunk and not as coalesced; the tiny one counts as coalesced.
func TestAdmissionLargeJobShrinksUnderContention(t *testing.T) {
	a := newAdmission(4)
	tiny := a.grant(a.width(0, 0), 0)
	wide := a.grant(a.width(1e30, 0), 0)
	if tiny != 1 || wide != 3 {
		t.Fatalf("grants %d, %d; want 1, 3", tiny, wide)
	}
	if s := a.snapshot(); s.Shrunk != 1 || s.Coalesced != 1 || s.Grants != 2 {
		t.Fatalf("counters: %+v", s)
	}
	a.release(tiny)
	a.release(wide)
}

// A job queued behind a full budget stays queued, holding no processor,
// until the running job finishes; then it starts on the processors that
// came back.
func TestAdmissionBlocksUntilRelease(t *testing.T) {
	srv, _, c := newTestServer(t, Config{MaxProcs: 1})
	release := holdJobs(t, "hold")
	running := submit(t, c, named(helix(1), "hold"), quickParams())
	waitState(t, c, running.ID, StateRunning)
	queued := submit(t, c, helix(1), quickParams())
	if queued.State != StateQueued {
		t.Fatalf("second job with nothing free: %+v, want queued", queued)
	}
	if m := srv.Snapshot(); m.Queue.Depth != 1 || m.Scheduler.Waiting != 1 || m.Scheduler.ProcsInUse != 1 || m.Scheduler.Grants != 1 {
		t.Fatalf("while queued: depth %d, %+v", m.Queue.Depth, m.Scheduler)
	}
	release()
	first := waitState(t, c, running.ID, StateDone)
	second := waitState(t, c, queued.ID, StateDone)
	finished, _ := time.Parse(time.RFC3339Nano, first.FinishedAt)
	started, _ := time.Parse(time.RFC3339Nano, second.StartedAt)
	if started.Before(finished) {
		t.Fatalf("queued job started at %s, before the running one finished at %s", second.StartedAt, first.FinishedAt)
	}
	waitIdle(t, srv)
	if s := srv.Snapshot().Scheduler; s.Grants != 2 || s.Waiting != 0 {
		t.Fatalf("after both ran: %+v", s)
	}
}

// Cancelling a queued job takes it out of the queue at once: it holds no
// processor and no queue slot, it is never granted, and the budget is
// whole for the next job once the running one finishes.
func TestAdmissionCancelledWaitHoldsNothing(t *testing.T) {
	srv, _, c := newTestServer(t, Config{MaxProcs: 1, QueueDepth: 1})
	release := holdJobs(t, "hold")
	ctx := context.Background()
	running := submit(t, c, named(helix(1), "hold"), quickParams())
	waitState(t, c, running.ID, StateRunning)
	queued := submit(t, c, helix(1), quickParams())
	st, err := c.Cancel(ctx, queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled || st.Error != "cancelled while queued" {
		t.Fatalf("cancelled queued job: %+v", st)
	}
	if m := srv.Snapshot(); m.Queue.Depth != 0 || m.Scheduler.Waiting != 0 || m.Scheduler.ProcsInUse != 1 || m.Scheduler.Grants != 1 {
		t.Fatalf("after the cancel: depth %d, %+v", m.Queue.Depth, m.Scheduler)
	}
	// The depth-1 queue has its slot back.
	next := submit(t, c, helix(1), quickParams())
	release()
	waitState(t, c, running.ID, StateDone)
	waitState(t, c, next.ID, StateDone)
	waitIdle(t, srv)
	if s := srv.Snapshot().Scheduler; s.Grants != 2 {
		t.Fatalf("grants %d, want 2: the cancelled job must never be granted", s.Grants)
	}
}

// A drain deadline ends the queue wait: a forced shutdown cancels the
// queued head and everything behind it "during shutdown", cancels the
// running job, and leaves the budget whole with nobody waiting.
func TestAdmissionDeadlineEndsWait(t *testing.T) {
	srv, _, c := newTestServer(t, Config{MaxProcs: 1})
	running := submit(t, c, helix(2), slowParams())
	waitState(t, c, running.ID, StateRunning)
	head := submit(t, c, helix(1), quickParams())
	behind := submit(t, c, helix(1), quickParams())

	const deadline = 30 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("forced drain error = %v, want deadline exceeded", err)
	}
	if d := time.Since(start); d < deadline {
		t.Fatalf("drain forced after %v, before its %v deadline", d, deadline)
	}
	for _, id := range []string{head.ID, behind.ID} {
		if st := waitState(t, c, id, StateCancelled); st.Error != "cancelled during shutdown" || st.StartedAt != "" {
			t.Fatalf("queued job: %+v, want cancelled during shutdown, never started", st)
		}
	}
	waitState(t, c, running.ID, StateCancelled)
	m := srv.Snapshot()
	if s := m.Scheduler; m.Queue.Depth != 0 || s.ProcsInUse != 0 || s.Waiting != 0 || s.Grants != 1 {
		t.Fatalf("after forced drain: depth %d, %+v", m.Queue.Depth, s)
	}
}

// The queue-wait histogram measures time at the head of the queue: a job
// held there 20 ms behind a running one is observed at that wait, the job
// admitted at once below it.
func TestAdmissionQueueWaitHistogram(t *testing.T) {
	const held = 20 * time.Millisecond
	srv, _, c := newTestServer(t, Config{MaxProcs: 1})
	release := holdJobs(t, "hold")
	running := submit(t, c, named(helix(1), "hold"), quickParams())
	waitState(t, c, running.ID, StateRunning)
	queued := submit(t, c, helix(1), quickParams())
	time.Sleep(held) // the queued job's wait, for the histogram to see
	release()
	waitState(t, c, running.ID, StateDone)
	waitState(t, c, queued.ID, StateDone)
	s := srv.Snapshot().Scheduler
	if s.QueueWaitCount != 2 {
		t.Fatalf("wait count %d, want 2", s.QueueWaitCount)
	}
	// The queued job waited ≥ 20 ms, so at most the immediate one lands in
	// the buckets below 10 ms.
	if fast := s.QueueWait["lt_100us"] + s.QueueWait["lt_1ms"] + s.QueueWait["lt_10ms"]; fast > 1 {
		t.Fatalf("fast buckets hold %d: %+v", fast, s.QueueWait)
	}
	var total int64
	for _, c := range s.QueueWait {
		total += c
	}
	if total != s.QueueWaitCount || len(s.QueueWait) != len(waitLabels) {
		t.Fatalf("buckets %+v, want %d summing to %d", s.QueueWait, len(waitLabels), s.QueueWaitCount)
	}
	if floor := float64(held) / 2 / 1e6; s.QueueWaitMeanMs < floor {
		t.Fatalf("mean wait %g ms, want ≥ %g", s.QueueWaitMeanMs, floor)
	}
}

// Jobs cancelled while queued give their queue slots back at once, however
// many there are: with one job running and one queued in a depth-2 queue,
// twenty submit+cancel pairs leave the depth at 1, so /readyz says ready
// and the next submit is accepted; at depth 2 both refuse. None of the
// cancelled jobs holds a processor or is ever granted.
func TestAdmissionCancelledJobsFreeTheirQueueSlots(t *testing.T) {
	srv, ts, c := newTestServer(t, Config{MaxProcs: 1, QueueDepth: 2})
	release := holdJobs(t, "hold")
	ctx := context.Background()
	running := submit(t, c, named(helix(1), "hold"), quickParams())
	waitState(t, c, running.ID, StateRunning)
	queued := submit(t, c, helix(1), quickParams())
	for i := 0; i < 20; i++ {
		st := submit(t, c, helix(1), quickParams())
		if _, err := c.Cancel(ctx, st.ID); err != nil {
			t.Fatalf("cancel %d: %v", i, err)
		}
	}

	var ready encode.HealthStatus
	if code := doJSON(t, http.MethodGet, ts.URL+"/readyz", nil, &ready); code != http.StatusOK || ready.QueueDepth != 1 {
		t.Fatalf("/readyz at depth 1 of 2: http %d, %+v", code, ready)
	}
	accepted, err := c.Submit(ctx, helix(1), quickParams())
	if err != nil {
		t.Fatalf("submit while /readyz says ready: %v", err)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/readyz", nil, &ready); code != http.StatusServiceUnavailable || ready.QueueDepth != 2 {
		t.Fatalf("/readyz at depth 2 of 2: http %d, %+v", code, ready)
	}
	if _, err := c.Submit(ctx, helix(1), quickParams()); !client.IsQueueFull(err) {
		t.Fatalf("submit while /readyz says saturated: %v, want queue_full", err)
	}

	m := srv.Snapshot()
	if s := m.Scheduler; m.Queue.Depth != 2 || s.ProcsInUse != 1 || s.Grants != 1 || m.Jobs.Cancelled != 20 {
		t.Fatalf("with 20 cancelled: depth %d, cancelled %d, %+v", m.Queue.Depth, m.Jobs.Cancelled, s)
	}
	release()
	for _, id := range []string{running.ID, queued.ID, accepted.ID} {
		waitState(t, c, id, StateDone)
	}
	waitIdle(t, srv)
	if s := srv.Snapshot().Scheduler; s.Grants != 3 {
		t.Fatalf("grants %d, want 3: one per job that ran", s.Grants)
	}
}

// One granter at a time, as the manager's lock makes it, against many job
// goroutines releasing concurrently: grants never oversubscribe the budget
// and every release makes room for the next grant. Run under -race.
func TestAdmissionChurnAgainstConcurrentReleasers(t *testing.T) {
	const capacity, rounds = 6, 500
	a := newAdmission(capacity)
	var (
		cur, peak atomic.Int64
		wg        sync.WaitGroup
	)
	for i := 0; i < rounds; i++ {
		k := grantEventually(a, 1+i%4)
		n := cur.Add(int64(k))
		for old := peak.Load(); n > old && !peak.CompareAndSwap(old, n); old = peak.Load() {
		}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			runtime.Gosched()
			cur.Add(-int64(k))
			a.release(k)
		}(k)
	}
	wg.Wait()
	if p := peak.Load(); p > capacity {
		t.Fatalf("oversubscribed: peak %d > capacity %d", p, capacity)
	}
	s := a.snapshot()
	if s.ProcsInUse != 0 || s.TeamsActive != 0 || s.Grants != rounds {
		t.Fatalf("not drained: %+v", s)
	}
}

// Jobs of mixed cost sized by width and granted one at a time while job
// goroutines release and /metrics readers take snapshots concurrently:
// every grant lies in [1, width] and the budget drains with one grant per
// job. Run under -race.
func TestAdmissionSizedChurnWithMetricsReaders(t *testing.T) {
	const capacity, jobs = 4, 500
	a := newAdmission(capacity)
	stop := make(chan struct{})
	var readers, releasers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if s := a.snapshot(); s.ProcsInUse < 0 || s.ProcsInUse > capacity {
					t.Errorf("snapshot in use %d outside [0, %d]", s.ProcsInUse, capacity)
					return
				}
				runtime.Gosched()
			}
		}()
	}
	for j := 0; j < jobs; j++ {
		want := a.width(float64(j%10*(j%50))*teamGrain/10, 0)
		k := grantEventually(a, want)
		if k < 1 || k > want {
			t.Fatalf("job %d: grant %d for width %d, want in [1, %d]", j, k, want, want)
		}
		releasers.Add(1)
		go func(k int) {
			defer releasers.Done()
			runtime.Gosched()
			a.release(k)
		}(k)
	}
	releasers.Wait()
	close(stop)
	readers.Wait()
	s := a.snapshot()
	if s.ProcsInUse != 0 || s.TeamsActive != 0 || s.Grants != jobs {
		t.Fatalf("not drained: %+v", s)
	}
}
