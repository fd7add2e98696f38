package server

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitForWaiter polls until the budget reports the dispatcher's one
// acquire parked.
func waitForWaiter(t *testing.T, a *admission) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for a.snapshot().Waiting != 1 {
		if time.Now().After(deadline) {
			t.Fatal("acquire never parked")
		}
		time.Sleep(time.Millisecond)
	}
}

// Sizing: one processor per grain, clamped to [1, MaxTeam], and the
// request's procs caps it further when positive.
func TestAdmissionWidth(t *testing.T) {
	a := newAdmission(16, 8)
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
		{1e30, 0, 8},              // clamped to MaxTeam
		{-5, 0, 1},                // nonsense cost → 1
		{1e30, 3, 3},              // procs caps the width
		{1e30, 20, 8},             // a procs above MaxTeam changes nothing
		{2.5 * teamGrain, -1, 2},  // non-positive procs is no cap
		{0.5 * teamGrain, 4, 1},   // procs never widens a team
		{6 * teamGrain, 1, 1},     // procs 1: a coalesced team
		{100 * teamGrain, 8, 8},   // procs at MaxTeam
		{7.999 * teamGrain, 0, 7}, // floor, not round
	}
	for _, c := range cases {
		if got := a.width(c.cost, c.procs); got != c.want {
			t.Errorf("width(%g, procs %d) = %d, want %d", c.cost, c.procs, got, c.want)
		}
	}
}

func TestAdmissionAccounting(t *testing.T) {
	a := newAdmission(8, 8)
	if s := a.snapshot(); s.ProcsCapacity != 8 || s.MaxTeam != 8 || s.ProcsInUse != 0 || s.TeamsActive != 0 {
		t.Fatalf("fresh budget: %+v", s)
	}
	k, err := a.acquire(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if k != 4 {
		t.Fatalf("grant %d, want 4", k)
	}
	if s := a.snapshot(); s.ProcsInUse != 4 || s.TeamsActive != 1 || s.Grants != 1 || s.Shrunk != 0 || s.Coalesced != 0 {
		t.Fatalf("after acquire: %+v", s)
	}
	a.release(k)
	if s := a.snapshot(); s.ProcsInUse != 0 || s.TeamsActive != 0 || s.Waiting != 0 {
		t.Fatalf("after release: %+v", s)
	}
}

// Under contention a grant shrinks to the free share at once instead of
// waiting for its full width.
func TestAdmissionShrinksToFree(t *testing.T) {
	a := newAdmission(8, 8)
	tiny, err := a.acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := a.acquire(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if tiny != 1 || wide != 5 {
		t.Fatalf("grants %d, %d; want 1, 5", tiny, wide)
	}
	// Only 2 free: an 8-wide request shrinks to 2 immediately.
	small, err := a.acquire(context.Background(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if small != 2 {
		t.Fatalf("shrunk grant %d, want 2", small)
	}
	s := a.snapshot()
	if s.Grants != 3 || s.Coalesced != 1 || s.Shrunk != 1 || s.ProcsInUse != 8 || s.TeamsActive != 3 {
		t.Fatalf("counters: %+v", s)
	}
	a.release(tiny)
	a.release(wide)
	a.release(small)
}

// A wide job that arrives while a tiny one runs is granted what is left,
// counted as shrunk and not as coalesced; the tiny one counts as coalesced.
func TestAdmissionLargeJobShrinksUnderContention(t *testing.T) {
	a := newAdmission(4, 4)
	tiny, err := a.acquire(context.Background(), a.width(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	wide, err := a.acquire(context.Background(), a.width(1e30, 0))
	if err != nil {
		t.Fatal(err)
	}
	if tiny != 1 || wide != 3 {
		t.Fatalf("grants %d, %d; want 1, 3", tiny, wide)
	}
	if s := a.snapshot(); s.Shrunk != 1 || s.Coalesced != 1 || s.Grants != 2 {
		t.Fatalf("counters: %+v", s)
	}
	a.release(tiny)
	a.release(wide)
}

// With nothing free the acquire parks, and a release wakes it with what
// came back.
func TestAdmissionBlocksUntilRelease(t *testing.T) {
	a := newAdmission(2, 2)
	hold, err := a.acquire(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan int, 1)
	go func() {
		k, err := a.acquire(context.Background(), 2)
		if err != nil {
			t.Error(err)
		}
		done <- k
	}()
	waitForWaiter(t, a)
	select {
	case k := <-done:
		t.Fatalf("granted %d with nothing free", k)
	default:
	}
	a.release(hold)
	select {
	case k := <-done:
		if k != 2 {
			t.Fatalf("grant %d, want 2", k)
		}
		a.release(k)
	case <-time.After(10 * time.Second):
		t.Fatal("acquire did not wake after release")
	}
	if s := a.snapshot(); s.Waiting != 0 || s.ProcsInUse != 0 {
		t.Fatalf("after wake: %+v", s)
	}
}

// An acquire whose context is cancelled while it waits returns
// context.Canceled, leaves no waiter behind and holds nothing: the whole
// budget is still there once the holder releases.
func TestAdmissionCancelledWaitHoldsNothing(t *testing.T) {
	a := newAdmission(2, 2)
	hold, err := a.acquire(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := a.acquire(ctx, 2)
		errc <- err
	}()
	waitForWaiter(t, a)
	cancel()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled acquire did not return")
	}
	if s := a.snapshot(); s.Waiting != 0 || s.ProcsInUse != 2 || s.TeamsActive != 1 || s.Grants != 1 {
		t.Fatalf("after cancelled wait: %+v", s)
	}
	a.release(hold)
	k, err := a.acquire(context.Background(), 2)
	if err != nil || k != 2 {
		t.Fatalf("acquire after release: %d, %v; want the whole budget", k, err)
	}
	a.release(k)
}

// An acquire with a deadline blocks while nothing is free and gives up with
// context.DeadlineExceeded when the deadline passes; after the holder
// releases, a full-width acquire succeeds.
func TestAdmissionDeadlineEndsWait(t *testing.T) {
	a := newAdmission(2, 2)
	hold, err := a.acquire(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	const deadline = 30 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	if _, err := a.acquire(ctx, 2); err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if d := time.Since(start); d < deadline {
		t.Fatalf("acquire gave up after %v, before its %v deadline", d, deadline)
	}
	if s := a.snapshot(); s.Waiting != 0 || s.ProcsInUse != 2 || s.Grants != 1 {
		t.Fatalf("after timed-out wait: %+v", s)
	}
	a.release(hold)
	k, err := a.acquire(context.Background(), 2)
	if err != nil || k != 2 {
		t.Fatalf("acquire after release: %d, %v; want 2", k, err)
	}
	a.release(k)
}

func TestAdmissionQueueWaitHistogram(t *testing.T) {
	const held = 20 * time.Millisecond
	a := newAdmission(1, 1)
	hold, err := a.acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if k, err := a.acquire(context.Background(), 1); err == nil {
			a.release(k)
		}
	}()
	waitForWaiter(t, a)
	time.Sleep(held) // the parked acquire's wait, for the histogram to see
	a.release(hold)
	<-done
	s := a.snapshot()
	if s.QueueWaitCount != 2 {
		t.Fatalf("wait count %d, want 2", s.QueueWaitCount)
	}
	// The parked acquire waited ≥ 20 ms, so at most the immediate one lands
	// in the buckets below 10 ms.
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

// One acquirer, as the dispatcher is, against many job goroutines
// releasing concurrently: grants never oversubscribe the budget and every
// release wakes a parked acquire. Run under -race.
func TestAdmissionChurnAgainstConcurrentReleasers(t *testing.T) {
	const capacity, rounds = 6, 500
	a := newAdmission(capacity, 4)
	var (
		cur, peak atomic.Int64
		wg        sync.WaitGroup
	)
	for i := 0; i < rounds; i++ {
		k, err := a.acquire(context.Background(), 1+i%4)
		if err != nil {
			t.Fatal(err)
		}
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
	if s.ProcsInUse != 0 || s.TeamsActive != 0 || s.Waiting != 0 || s.Grants != rounds {
		t.Fatalf("not drained: %+v", s)
	}
}

// Jobs of mixed cost sized by width and admitted one at a time while job
// goroutines release and /metrics readers take snapshots concurrently:
// every grant lies in [1, MaxTeam] and never exceeds its sized width, and
// the budget drains with one grant per job. Run under -race.
func TestAdmissionSizedChurnWithMetricsReaders(t *testing.T) {
	const capacity, maxTeam, jobs = 4, 3, 500
	a := newAdmission(capacity, maxTeam)
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
		k, err := a.acquire(context.Background(), want)
		if err != nil {
			t.Fatal(err)
		}
		if k < 1 || k > maxTeam || k > want {
			t.Fatalf("job %d: grant %d for width %d, want in [1, %d]", j, k, want, min(want, maxTeam))
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
	if s.ProcsInUse != 0 || s.TeamsActive != 0 || s.Waiting != 0 || s.Grants != jobs {
		t.Fatalf("not drained: %+v", s)
	}
}
