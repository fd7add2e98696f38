package client

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"phmse/internal/encode"
)

// The backoff delay is floored by the server's Retry-After and capped by
// MaxDelay plus jitter.
func TestRetryPolicyDelay(t *testing.T) {
	p := RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond}
	for idx := 0; idx < 12; idx++ {
		d := p.Delay(idx, nil)
		if d < 5*time.Millisecond || d >= 120*time.Millisecond {
			t.Fatalf("delay(%d) = %v outside [base/2, 1.5*max)", idx, d)
		}
	}
	busy := &APIError{HTTPStatus: 429, Code: encode.CodeQueueFull, RetryAfter: time.Second}
	if floored := p.Delay(0, busy); floored < time.Second {
		t.Fatalf("delay with Retry-After 1s = %v, want >= 1s", floored)
	}
	// The zero policy has no backoff but still honours Retry-After.
	if d := (RetryPolicy{}).Delay(1, nil); d != 0 {
		t.Fatalf("zero policy delay = %v, want 0", d)
	}
	if d := (RetryPolicy{}).Delay(0, busy); d != time.Second {
		t.Fatalf("zero policy delay with Retry-After 1s = %v, want 1s", d)
	}
}

// TestRetryPolicyDo pins the retry loop the routing tier forwards and
// transfers under.
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
