package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"phmse/internal/encode"
	"phmse/internal/molecule"
)

// jobStub serves one job's status route the way phmsed does: the job is
// running until finish is called, and (unless ignoreWait) a request
// carrying ?wait= is held until then or until the wait elapses. It records
// the wait of every request ("" when absent).
type jobStub struct {
	ignoreWait bool
	done       chan struct{}

	mu    sync.Mutex
	waits []string
}

func newJobStub(t *testing.T, ignoreWait bool, opts ...Option) (*jobStub, *Client) {
	t.Helper()
	js := &jobStub{ignoreWait: ignoreWait, done: make(chan struct{})}
	ts := httptest.NewServer(js)
	t.Cleanup(ts.Close)
	t.Cleanup(js.finish) // release any handler still parked
	return js, New(ts.URL, opts...)
}

func (js *jobStub) finish() {
	select {
	case <-js.done:
	default:
		close(js.done)
	}
}

func (js *jobStub) requests() []string {
	js.mu.Lock()
	defer js.mu.Unlock()
	return append([]string(nil), js.waits...)
}

func (js *jobStub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	wait := r.URL.Query().Get("wait")
	js.mu.Lock()
	js.waits = append(js.waits, wait)
	js.mu.Unlock()
	if ms, err := strconv.Atoi(wait); err == nil && !js.ignoreWait {
		t := time.NewTimer(time.Duration(ms) * time.Millisecond)
		defer t.Stop()
		select {
		case <-js.done:
		case <-t.C:
		case <-r.Context().Done():
		}
	}
	state := encode.JobRunning
	select {
	case <-js.done:
		state = encode.JobDone
	default:
	}
	fmt.Fprintf(w, `{"id": "job-000001", "state": %q}`, state)
}

// Against a daemon that parks status requests, waiting for a job is one
// exchange however long the job runs.
func TestWaitLongPollsOnce(t *testing.T) {
	js, c := newJobStub(t, false)
	time.AfterFunc(50*time.Millisecond, js.finish)
	st, err := c.Wait(context.Background(), "job-000001", time.Millisecond)
	if err != nil || st.State != encode.JobDone {
		t.Fatalf("wait: %v, %+v", err, st)
	}
	reqs := js.requests()
	if len(reqs) != 1 || reqs[0] == "" {
		t.Fatalf("a 50 ms job took %d status requests with waits %q, want exactly one carrying ?wait=", len(reqs), reqs)
	}
	if ms, err := strconv.Atoi(reqs[0]); err != nil || ms <= 0 {
		t.Fatalf("wait=%q, want a positive integer of milliseconds", reqs[0])
	}
}

// A daemon that ignores ?wait= is polled every poll, as before.
func TestWaitPollsWhenWaitIgnored(t *testing.T) {
	const poll = 20 * time.Millisecond
	js, c := newJobStub(t, true)
	time.AfterFunc(3*poll, js.finish)
	t0 := time.Now()
	st, err := c.Wait(context.Background(), "job-000001", poll)
	if err != nil || st.State != encode.JobDone {
		t.Fatalf("wait: %v, %+v", err, st)
	}
	// Rounds are poll apart: a 60 ms job is seen done by the round at 60 or
	// 80 ms, after four or five requests — neither one nor a busy loop.
	if n, took := len(js.requests()), time.Since(t0); n < 3 || n > 6 || took < 3*poll {
		t.Fatalf("%d status requests in %v, want one per %v poll", n, took, poll)
	}
}

// The daemon parks only on completion, so waiting for a non-terminal state
// sends no ?wait= and polls.
func TestWaitNonTerminalStatePolls(t *testing.T) {
	js, c := newJobStub(t, false)
	st, err := c.Wait(context.Background(), "job-000001", time.Millisecond, encode.JobRunning, encode.JobDone)
	if err != nil || st.State != encode.JobRunning {
		t.Fatalf("wait: %v, %+v", err, st)
	}
	for _, wait := range js.requests() {
		if wait != "" {
			t.Fatalf("waiting for a non-terminal state sent ?wait=%s", wait)
		}
	}
}

// The wait is clipped to half the http.Client timeout, so a job longer
// than the timeout is several short rounds, not a transport error.
func TestWaitUnderShortClientTimeout(t *testing.T) {
	js, c := newJobStub(t, false, WithHTTPClient(&http.Client{Timeout: 50 * time.Millisecond}))
	time.AfterFunc(200*time.Millisecond, js.finish)
	st, err := c.Wait(context.Background(), "job-000001", time.Millisecond)
	if err != nil || st.State != encode.JobDone {
		t.Fatalf("a 200 ms job under a 50 ms client timeout: %v, %+v", err, st)
	}
	for _, wait := range js.requests() {
		if ms, err := strconv.Atoi(wait); err != nil || ms > 25 {
			t.Fatalf("round asked ?wait=%q, want at most half the 50 ms timeout", wait)
		}
	}
}

// A context deadline clips the wait too.
func TestWaitClipsToContextDeadline(t *testing.T) {
	js, c := newJobStub(t, false)
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	if _, err := c.Wait(ctx, "job-000001", time.Millisecond); err == nil {
		t.Fatal("wait on a job that never finishes returned no error")
	}
	for _, wait := range js.requests() {
		if ms, err := strconv.Atoi(wait); wait != "" && (err != nil || ms > 40) {
			t.Fatalf("round asked ?wait=%q under a 40 ms deadline", wait)
		}
	}
}

// The request body is built in one pass and must stay byte-for-byte what
// the two-pass construction produced (bench.TestRequestBodyMatchesClient
// pins the same bytes from the benchmark's side).
func TestSubmitBodyBytes(t *testing.T) {
	var got []byte
	c := stubServer(t, func(w http.ResponseWriter, r *http.Request) {
		got, _ = io.ReadAll(r.Body)
		fmt.Fprint(w, `{"id": "job-000001", "state": "queued"}`)
	})
	p := molecule.WithAnchors(molecule.Helix(1), 4, 0.05)
	var doc bytes.Buffer
	if err := encode.WriteProblem(&doc, p); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	params := encode.SolveParams{Perturb: 0.4, Seed: 17, KeepPosterior: true}

	if _, err := c.Submit(ctx, p, params); err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(encode.SolveRequest{Problem: doc.Bytes(), Params: params})
	if !bytes.Equal(got, want) {
		t.Errorf("cold submit: sent %d bytes, want these %d:\n%.200s\n%.200s", len(got), len(want), got, want)
	}

	if _, err := c.WarmStart(ctx, p, encode.SolveParams{}, "s1.job-000007"); err != nil {
		t.Fatal(err)
	}
	want, _ = json.Marshal(encode.SolveRequest{Problem: doc.Bytes(), WarmStart: &encode.WarmStartRef{Job: "s1.job-000007"}})
	if !bytes.Equal(got, want) {
		t.Errorf("warm start: sent %d bytes, want these %d:\n%.200s\n%.200s", len(got), len(want), got, want)
	}
}
