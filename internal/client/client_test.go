package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"phmse/internal/encode"
	"phmse/internal/molecule"
)

// stubServer serves canned responses so the client's decoding and error
// mapping are tested without a real solver behind them.
func stubServer(t *testing.T, h http.HandlerFunc) *Client {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return New(ts.URL + "/") // trailing slash must be tolerated
}

func TestErrorEnvelopeMapping(t *testing.T) {
	c := stubServer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "2")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error": {"code": "queue_full", "message": "queue is full", "state": ""}}`)
	})
	_, err := c.Status(context.Background(), "job-000001")
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("error is %T, want *APIError: %v", err, err)
	}
	if ae.HTTPStatus != http.StatusTooManyRequests || ae.Code != encode.CodeQueueFull {
		t.Fatalf("mapped error: %+v", ae)
	}
	if ae.Message != "queue is full" {
		t.Fatalf("message: %q", ae.Message)
	}
	if ae.RetryAfter != 2*time.Second {
		t.Fatalf("retry-after: %v", ae.RetryAfter)
	}
	if !IsQueueFull(err) || IsNotFound(err) || Code(err) != encode.CodeQueueFull {
		t.Fatalf("predicates disagree on %v", err)
	}
	if ae.Error() == "" {
		t.Fatal("empty error string")
	}
}

func TestErrorEnvelopeState(t *testing.T) {
	c := stubServer(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusConflict)
		fmt.Fprint(w, `{"error": {"code": "no_result", "message": "job was cancelled", "state": "cancelled"}}`)
	})
	_, err := c.Result(context.Background(), "job-000001")
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("error is %T: %v", err, err)
	}
	if ae.State != encode.JobCancelled || ae.Code != encode.CodeNoResult {
		t.Fatalf("mapped error: %+v", ae)
	}
}

// A non-envelope body (proxy error page, panic text) still becomes an
// *APIError, with the raw text preserved as the message.
func TestNonEnvelopeErrorBody(t *testing.T) {
	c := stubServer(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "upstream exploded", http.StatusBadGateway)
	})
	_, err := c.Status(context.Background(), "x")
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("error is %T: %v", err, err)
	}
	if ae.HTTPStatus != http.StatusBadGateway || ae.Code != encode.CodeInternal {
		t.Fatalf("mapped error: %+v", ae)
	}
	if ae.Message != "upstream exploded" {
		t.Fatalf("message: %q", ae.Message)
	}
}

// TestDecodeError pins the exported decoder the routing tier feeds its
// backoff from: envelope fields and Retry-After survive, and a
// non-envelope body degrades to a capped raw message.
func TestDecodeError(t *testing.T) {
	mk := func(status int, retryAfter, body string) *http.Response {
		h := http.Header{}
		if retryAfter != "" {
			h.Set("Retry-After", retryAfter)
		}
		return &http.Response{StatusCode: status, Header: h, Body: io.NopCloser(strings.NewReader(body))}
	}
	var ae *APIError
	err := DecodeError(mk(http.StatusTooManyRequests, "2", `{"error":{"code":"queue_full","message":"busy"}}`))
	if !errors.As(err, &ae) {
		t.Fatalf("DecodeError returned %T", err)
	}
	if ae.Code != encode.CodeQueueFull || ae.Message != "busy" || ae.RetryAfter != 2*time.Second || ae.HTTPStatus != http.StatusTooManyRequests {
		t.Fatalf("parsed %+v, want envelope fields and Retry-After preserved", ae)
	}

	err = DecodeError(mk(http.StatusBadGateway, "", strings.Repeat("x", 500)))
	if !errors.As(err, &ae) {
		t.Fatalf("DecodeError returned %T", err)
	}
	if ae.Code != encode.CodeInternal || len(ae.Message) != 200 {
		t.Fatalf("fallback = code %q, %d-byte message; want internal with a 200-byte cap", ae.Code, len(ae.Message))
	}
}

func TestSubmitBodiesAndRoutes(t *testing.T) {
	var gotPath, gotQuery string
	var gotReq encode.SolveRequest
	c := stubServer(t, func(w http.ResponseWriter, r *http.Request) {
		gotPath = r.URL.Path
		gotQuery = r.URL.RawQuery
		if r.Method == http.MethodPost && r.URL.Path == "/v1/solve" {
			if err := jsonDecode(r, &gotReq); err != nil {
				t.Errorf("decoding submit body: %v", err)
			}
			w.WriteHeader(http.StatusAccepted)
		}
		fmt.Fprint(w, `{"id": "job-000001", "state": "queued"}`)
	})
	ctx := context.Background()
	p := molecule.Helix(1)

	st, err := c.Submit(ctx, p, encode.SolveParams{KeepPosterior: true})
	if err != nil || st.ID != "job-000001" {
		t.Fatalf("submit: %v, %+v", err, st)
	}
	if !gotReq.Params.KeepPosterior || gotReq.WarmStart != nil || len(gotReq.Problem) == 0 {
		t.Fatalf("submit request body: %+v", gotReq)
	}

	if _, err := c.WarmStart(ctx, p, encode.SolveParams{}, "job-000042"); err != nil {
		t.Fatal(err)
	}
	if gotReq.WarmStart == nil || gotReq.WarmStart.Job != "job-000042" {
		t.Fatalf("warm-start request body: %+v", gotReq.WarmStart)
	}

	if _, err := c.Posterior(ctx, "job-000001", true); err != nil {
		t.Fatal(err)
	}
	if gotPath != "/v1/jobs/job-000001/posterior" || gotQuery != "cov=full" {
		t.Fatalf("posterior route: %s?%s", gotPath, gotQuery)
	}

	if _, err := c.List(ctx, ListOptions{State: encode.JobDone, Limit: 10, After: "job-000003"}); err != nil {
		t.Fatal(err)
	}
	if gotPath != "/v1/jobs" || gotQuery != "after=job-000003&limit=10&state=done" {
		t.Fatalf("list route: %s?%s", gotPath, gotQuery)
	}

	if _, err := c.Cancel(ctx, "job-000001"); err != nil {
		t.Fatal(err)
	}
	if gotPath != "/v1/jobs/job-000001/cancel" {
		t.Fatalf("cancel route: %s", gotPath)
	}
}

// Wait returns once the polled state matches, and surfaces context
// cancellation with the last observed state.
func TestWait(t *testing.T) {
	polls := 0
	c := stubServer(t, func(w http.ResponseWriter, r *http.Request) {
		polls++
		state := "running"
		if polls >= 3 {
			state = "done"
		}
		fmt.Fprintf(w, `{"id": "job-000001", "state": %q}`, state)
	})
	st, err := c.Wait(context.Background(), "job-000001", time.Millisecond)
	if err != nil || st.State != encode.JobDone {
		t.Fatalf("wait: %v, %+v", err, st)
	}
	if polls < 3 {
		t.Fatalf("wait returned after %d polls", polls)
	}

	stuck := stubServer(t, func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"id": "job-000001", "state": "running"}`)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := stuck.Wait(ctx, "job-000001", time.Millisecond); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stuck wait error = %v, want deadline exceeded", err)
	}
}

func jsonDecode(r *http.Request, out any) error {
	defer r.Body.Close()
	return json.NewDecoder(r.Body).Decode(out)
}
