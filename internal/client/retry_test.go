package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"phmse/internal/encode"
	"phmse/internal/molecule"
)

// retryStub serves h with transport retries enabled at test-friendly
// delays, and returns the client plus a pointer to the request counter.
func retryStub(t *testing.T, h func(n int64, w http.ResponseWriter, r *http.Request)) (*Client, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	c := stubServer(t, func(w http.ResponseWriter, r *http.Request) {
		h(calls.Add(1), w, r)
	})
	withRetry(RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond})(c)
	return c, &calls
}

func writeEnvelope(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, `{"error": {"code": %q, "message": %q}}`, code, msg)
}

// Backpressure rejections have no side effects, so even a POST submission
// rides through them under the retry policy.
func TestSubmitRetriesThroughBackpressure(t *testing.T) {
	c, calls := retryStub(t, func(n int64, w http.ResponseWriter, r *http.Request) {
		if n <= 2 {
			w.Header().Set("Retry-After", "0")
			writeEnvelope(w, http.StatusTooManyRequests, encode.CodeQueueFull, "queue is full")
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(encode.JobStatus{ID: "job-000001", State: encode.JobQueued})
	})
	st, err := c.Submit(context.Background(), molecule.Helix(1), encode.SolveParams{})
	if err != nil {
		t.Fatalf("submit through backpressure: %v", err)
	}
	if st.ID != "job-000001" || calls.Load() != 3 {
		t.Fatalf("status %+v after %d calls, want job-000001 after 3", st, calls.Load())
	}
}

// A server that never stops rejecting exhausts MaxAttempts and surfaces
// the last backpressure error unchanged.
func TestRetryExhaustsAttempts(t *testing.T) {
	c, calls := retryStub(t, func(n int64, w http.ResponseWriter, r *http.Request) {
		writeEnvelope(w, http.StatusServiceUnavailable, encode.CodeDraining, "draining")
	})
	_, err := c.Submit(context.Background(), molecule.Helix(1), encode.SolveParams{})
	if !HasCode(err, encode.CodeDraining) {
		t.Fatalf("err = %v, want draining", err)
	}
	if calls.Load() != 4 {
		t.Fatalf("%d calls, want MaxAttempts = 4", calls.Load())
	}
}

// A 5xx on a POST may have reached the handler; the submission must not
// be replayed.
func TestPostNotRetriedThrough5xx(t *testing.T) {
	c, calls := retryStub(t, func(n int64, w http.ResponseWriter, r *http.Request) {
		writeEnvelope(w, http.StatusInternalServerError, encode.CodeInternal, "boom")
	})
	_, err := c.Submit(context.Background(), molecule.Helix(1), encode.SolveParams{})
	if !HasCode(err, encode.CodeInternal) {
		t.Fatalf("err = %v, want internal", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("%d calls, want exactly 1 (no POST replay through 5xx)", calls.Load())
	}
}

// A GET is idempotent: the same 5xx that stops a POST is retried on a
// status poll.
func TestGetRetriedThrough5xx(t *testing.T) {
	c, calls := retryStub(t, func(n int64, w http.ResponseWriter, r *http.Request) {
		if n == 1 {
			writeEnvelope(w, http.StatusBadGateway, encode.CodeInternal, "proxy hiccup")
			return
		}
		json.NewEncoder(w).Encode(encode.JobStatus{ID: "job-000001", State: encode.JobRunning})
	})
	st, err := c.Status(context.Background(), "job-000001")
	if err != nil {
		t.Fatalf("status through 5xx: %v", err)
	}
	if st.State != encode.JobRunning || calls.Load() != 2 {
		t.Fatalf("status %+v after %d calls", st, calls.Load())
	}
}

// Cancelling the context aborts the retry loop mid-backoff instead of
// sleeping out the remaining delay.
func TestRetryAbortsOnCancel(t *testing.T) {
	var calls atomic.Int64
	c := stubServer(t, func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeEnvelope(w, http.StatusTooManyRequests, encode.CodeQueueFull, "queue is full")
	})
	withRetry(RetryPolicy{MaxAttempts: 4, BaseDelay: 10 * time.Second, MaxDelay: 10 * time.Second})(c)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := c.Submit(ctx, molecule.Helix(1), encode.SolveParams{})
	if err == nil || ctx.Err() == nil {
		t.Fatalf("err = %v, want cancellation", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancel took %v to abort a 10s backoff", elapsed)
	}
	if calls.Load() != 1 {
		t.Fatalf("%d calls, want 1 (cancelled during the first backoff)", calls.Load())
	}
}

// waitRetry rides through transient polling failures and still returns the
// terminal status once the server recovers.
func TestWaitRetryRidesThroughTransient(t *testing.T) {
	c, _ := retryStub(t, func(n int64, w http.ResponseWriter, r *http.Request) {
		switch {
		case n == 2 || n == 3: // first poll fine, then an outage, then recovery
			writeEnvelope(w, http.StatusInternalServerError, encode.CodeInternal, "restarting")
		case n <= 4:
			json.NewEncoder(w).Encode(encode.JobStatus{ID: "job-000001", State: encode.JobRunning})
		default:
			json.NewEncoder(w).Encode(encode.JobStatus{ID: "job-000001", State: encode.JobDone})
		}
	})
	st, err := c.waitRetry(context.Background(), "job-000001", time.Millisecond)
	if err != nil {
		t.Fatalf("waitRetry: %v", err)
	}
	if st.State != encode.JobDone {
		t.Fatalf("state = %s, want done", st.State)
	}
}

// waitRetry gives up after MaxAttempts consecutive failures...
func TestWaitRetryGivesUpAfterConsecutiveFailures(t *testing.T) {
	c, calls := retryStub(t, func(n int64, w http.ResponseWriter, r *http.Request) {
		writeEnvelope(w, http.StatusInternalServerError, encode.CodeInternal, "down for good")
	})
	_, err := c.waitRetry(context.Background(), "job-000001", time.Millisecond)
	if !HasCode(err, encode.CodeInternal) {
		t.Fatalf("err = %v, want the surfaced internal error", err)
	}
	// Retries layer: each of the 4 tolerated polls is itself a GET retried
	// 4 times at the transport level before it counts as one failure.
	if calls.Load() != 16 {
		t.Fatalf("%d requests, want MaxAttempts² = 16", calls.Load())
	}
}

// ...but a non-transient error — the job does not exist — returns
// immediately, no matter the policy.
func TestWaitRetryStopsOnPermanentError(t *testing.T) {
	c, calls := retryStub(t, func(n int64, w http.ResponseWriter, r *http.Request) {
		writeEnvelope(w, http.StatusNotFound, encode.CodeNotFound, "no such job")
	})
	_, err := c.waitRetry(context.Background(), "job-999999", time.Millisecond)
	if !IsNotFound(err) {
		t.Fatalf("err = %v, want not_found", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("%d polls, want 1 (not_found is final)", calls.Load())
	}
}

// The backoff delay is floored by the server's Retry-After and capped by
// MaxDelay plus jitter.
func TestRetryPolicyDelay(t *testing.T) {
	p := RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond}.withDefaults()
	for idx := 0; idx < 12; idx++ {
		d := p.Delay(idx, nil)
		if d < 5*time.Millisecond || d >= 120*time.Millisecond {
			t.Fatalf("delay(%d) = %v outside [base/2, 1.5*max)", idx, d)
		}
	}
	floored := p.Delay(0, &APIError{HTTPStatus: 429, Code: encode.CodeQueueFull, RetryAfter: time.Second})
	if floored < time.Second {
		t.Fatalf("delay with Retry-After 1s = %v, want >= 1s", floored)
	}
}

// TestRetryPolicyDo pins the one retry loop the client and the routing
// tier share — the behaviours the router's transfer tests used to pin
// against its own copy of the loop.
func TestRetryPolicyDo(t *testing.T) {
	pol := RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
	transient := &APIError{HTTPStatus: http.StatusServiceUnavailable, Code: encode.CodeInternal}
	terminal := &APIError{HTTPStatus: http.StatusInsufficientStorage, Code: encode.CodePosteriorBudget}
	retryable := func(err error) bool { return err != terminal }
	bg := context.Background()

	t.Run("transient failures replay until the first success", func(t *testing.T) {
		calls := 0
		err := pol.Do(bg, func(i int) error {
			if calls++; i != calls-1 {
				t.Errorf("attempt index %d on call %d", i, calls)
			}
			if calls < 3 {
				return transient
			}
			return nil
		}, retryable)
		if err != nil || calls != 3 {
			t.Fatalf("err = %v after %d calls, want success on the 3rd", err, calls)
		}
	})

	t.Run("Retry-After floors the delay", func(t *testing.T) {
		const floor = 60 * time.Millisecond // 12x MaxDelay: only the floor explains the wait
		calls := 0
		start := time.Now()
		err := pol.Do(bg, func(int) error {
			if calls++; calls == 1 {
				return &APIError{HTTPStatus: http.StatusTooManyRequests, Code: encode.CodeQueueFull, RetryAfter: floor}
			}
			return nil
		}, retryable)
		if err != nil || calls != 2 {
			t.Fatalf("err = %v after %d calls, want success on the 2nd", err, calls)
		}
		if elapsed := time.Since(start); elapsed < floor {
			t.Fatalf("retry arrived after %v; Retry-After must floor the backoff at %v", elapsed, floor)
		}
	})

	t.Run("a terminal classification stops at once", func(t *testing.T) {
		calls := 0
		err := pol.Do(bg, func(int) error { calls++; return terminal }, retryable)
		if err != error(terminal) || calls != 1 {
			t.Fatalf("err = %v after %d calls, want the terminal error itself after exactly 1", err, calls)
		}
	})

	t.Run("exhaustion costs MaxAttempts calls and wraps the last error", func(t *testing.T) {
		calls := 0
		err := pol.Do(bg, func(int) error { calls++; return transient }, retryable)
		var ae *APIError
		if !errors.As(err, &ae) || ae != transient || !strings.Contains(err.Error(), "after 3 attempts") {
			t.Fatalf("err = %v, want the last error wrapped in an exhaustion after 3 attempts", err)
		}
		if calls != 3 {
			t.Fatalf("%d calls, want MaxAttempts = 3", calls)
		}
	})

	t.Run("context cancel mid-backoff returns the last error", func(t *testing.T) {
		slow := RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Second, MaxDelay: 10 * time.Second}
		ctx, cancel := context.WithCancel(bg)
		calls := 0
		start := time.Now()
		err := slow.Do(ctx, func(int) error { calls++; cancel(); return transient }, retryable)
		var ae *APIError
		if !errors.Is(err, context.Canceled) || !errors.As(err, &ae) || ae != transient {
			t.Fatalf("err = %v, want context.Canceled carrying the last error", err)
		}
		if calls != 1 || time.Since(start) > 2*time.Second {
			t.Fatalf("%d calls in %v, want 1 and no 10s backoff", calls, time.Since(start))
		}
	})

	t.Run("the zero policy still makes one attempt", func(t *testing.T) {
		calls := 0
		err := RetryPolicy{}.Do(bg, func(int) error { calls++; return transient }, retryable)
		if err != error(transient) || calls != 1 {
			t.Fatalf("err = %v after %d calls, want the bare error after 1", err, calls)
		}
	})
}
