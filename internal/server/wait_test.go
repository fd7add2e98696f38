package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"phmse/internal/encode"
)

// eventually polls cond until it holds; state the server reaches
// asynchronously (a handler parking, a counter settling) is waited for,
// never slept for.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// getStatusWait issues GET /v1/jobs/{id}?wait=<wait> under ctx.
func getStatusWait(ctx context.Context, base, id, wait string) (JobStatus, error) {
	var st JobStatus
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/v1/jobs/"+id+"?wait="+wait, nil)
	if err != nil {
		return st, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("http %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// statusWait is getStatusWait on the test goroutine; it also returns how
// long the daemon held the answer.
func statusWait(t *testing.T, base, id, wait string) (JobStatus, time.Duration) {
	t.Helper()
	t0 := time.Now()
	st, err := getStatusWait(context.Background(), base, id, wait)
	if err != nil {
		t.Fatalf("status ?wait=%s of %s: %v", wait, id, err)
	}
	return st, time.Since(t0)
}

// The ?wait= long-poll of the status route: answers when the job becomes
// terminal, answers the ordinary non-terminal document when the wait runs
// out first, never parks on a terminal job, and validates its parameter.
func TestStatusWait(t *testing.T) {
	srv, ts, c := newTestServer(t, Config{MaxProcs: 1, MaxTeam: 1, QueueDepth: 4})
	ctx := context.Background()
	waits := func() MetricsStatusWaits { return srv.Snapshot().StatusWaits }

	// A wait far longer than the solve returns at completion.
	quick := submit(t, c, helix(1), quickParams())
	st, held := statusWait(t, ts.URL, quick.ID, "120000")
	if st.State != StateDone || st.FinishedAt == "" {
		t.Fatalf("wait on a quick job answered %+v, want done", st)
	}
	if held > encode.MaxStatusWait/2 {
		t.Fatalf("wait on a quick job was held %v: it did not return at completion", held)
	}

	// A terminal job answers at once and is not a parked wait.
	before := waits()
	if st, held = statusWait(t, ts.URL, quick.ID, "120000"); st.State != StateDone || held > 5*time.Second {
		t.Fatalf("wait on a finished job: %+v after %v", st, held)
	}
	if got := waits(); got != before {
		t.Fatalf("wait on a finished job moved the counters: %+v -> %+v", before, got)
	}

	// A wait that elapses answers the non-terminal status, no sooner.
	slow := submit(t, c, helix(1), slowParams())
	st, held = statusWait(t, ts.URL, slow.ID, "60")
	if st.State.Terminal() || held < 60*time.Millisecond {
		t.Fatalf("elapsed wait: %+v after %v, want a non-terminal status after >= 60ms", st, held)
	}
	if got := waits(); got.TimedOut != before.TimedOut+1 || got.Parked != 0 {
		t.Fatalf("elapsed wait: counters %+v, want one more timed_out and nothing parked", got)
	}

	// A job cancelled while queued wakes its waiter.
	queued := submit(t, c, helix(1), slowParams())
	answered := make(chan JobStatus, 1)
	go func() {
		st, err := getStatusWait(ctx, ts.URL, queued.ID, "120000")
		if err != nil {
			t.Errorf("waiting on the queued job: %v", err)
		}
		answered <- st
	}()
	eventually(t, "the wait to park", func() bool { return waits().Parked == 1 })
	if _, err := c.Cancel(ctx, queued.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case st := <-answered:
		if st.State != StateCancelled {
			t.Fatalf("waiter of a cancelled queued job got %+v", st)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelling a queued job did not wake its waiter")
	}

	// wait must be a non-negative integer.
	for _, bad := range []string{"soon", "-1", "1.5", "1e3"} {
		var env encode.ErrorEnvelope
		if code := doJSON(t, "GET", ts.URL+"/v1/jobs/"+slow.ID+"?wait="+bad, nil, &env); code != http.StatusBadRequest || env.Error.Code != encode.CodeBadRequest {
			t.Errorf("wait=%s: http %d, envelope %+v, want 400 bad_request", bad, code, env)
		}
	}
}

// A caller that disconnects mid-wait releases its handler: the parked
// gauge returns to zero without the job finishing.
func TestStatusWaitAbandoned(t *testing.T) {
	srv, ts, c := newTestServer(t, Config{MaxProcs: 1, MaxTeam: 1})
	waits := func() MetricsStatusWaits { return srv.Snapshot().StatusWaits }
	slow := submit(t, c, helix(1), slowParams())

	ctx, hangUp := context.WithCancel(context.Background())
	defer hangUp()
	gone := make(chan error, 1)
	go func() {
		_, err := getStatusWait(ctx, ts.URL, slow.ID, "120000")
		gone <- err
	}()
	eventually(t, "the wait to park", func() bool { return waits().Parked == 1 })
	hangUp()
	if err := <-gone; err == nil {
		t.Fatal("the abandoned request was answered")
	}
	eventually(t, "the abandoned handler to return", func() bool {
		w := waits()
		return w.Parked == 0 && w.Abandoned == 1
	})
	if st, err := c.Status(context.Background(), slow.ID); err != nil || st.State.Terminal() {
		t.Fatalf("job after its waiter left: %+v, %v", st, err)
	}
}
