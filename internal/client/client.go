// Package client is the typed Go client of the phmsed v1 API. It wraps
// the HTTP endpoints in context-aware methods over the wire types of
// package encode and maps the structured error envelope onto *APIError
// values, so callers branch on error codes instead of parsing strings:
//
//	c := client.New("http://localhost:8080")
//	st, err := c.Submit(ctx, problem, encode.SolveParams{KeepPosterior: true})
//	if client.HasCode(err, encode.CodeQueueFull) { backoff() }
//	st, err = c.Wait(ctx, st.ID, 0, encode.JobDone, encode.JobFailed) // long-polls
//	sol, err := c.Result(ctx, st.ID)
//	st2, err := c.WarmStart(ctx, refined, encode.SolveParams{}, st.ID)
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"phmse/internal/encode"
	"phmse/internal/molecule"
)

// Client talks to one phmsed instance. The zero value is not usable;
// create with New. A Client is safe for concurrent use.
type Client struct {
	base   string
	hc     *http.Client
	retry  *RetryPolicy // nil: no transport-level retries
	bearer string       // "": no Authorization header
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, instrumentation).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithBearerToken attaches "Authorization: Bearer <token>" to every
// request — required by the router's /admin/v1 control plane and the
// daemons' mutating posterior-transfer endpoints when they run with
// -admin-token. An empty token leaves requests unauthenticated.
func WithBearerToken(token string) Option {
	return func(c *Client) { c.bearer = token }
}

// RetryPolicy shapes the transport-level retry of WithRetry: jittered
// exponential backoff, floored by any Retry-After the server sent.
type RetryPolicy struct {
	// MaxAttempts bounds the total tries of one request (default 4).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; attempt k waits
	// roughly BaseDelay·2ᵏ (default 50 ms).
	BaseDelay time.Duration
	// MaxDelay caps one backoff step before jitter (default 2 s).
	MaxDelay time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	return p
}

// Delay computes the backoff before retry number retryIdx (0-based): the
// capped exponential step, jittered over [d/2, 3d/2) so synchronized
// clients spread out, and floored by the server's Retry-After when the
// last rejection carried one.
func (p RetryPolicy) Delay(retryIdx int, last error) time.Duration {
	d := p.BaseDelay << retryIdx
	if d > p.MaxDelay || d <= 0 {
		d = p.MaxDelay
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d)))
	var ae *APIError
	if errors.As(last, &ae) && ae.RetryAfter > d {
		d = ae.RetryAfter
	}
	return d
}

// Do is the one retry loop of the client and the routing tier: it calls
// fn (passing the 0-based attempt number) until fn succeeds, retryable
// reports its error final, MaxAttempts calls have been made (at least
// one), or ctx ends mid-backoff. Backoffs follow Delay, so a Retry-After
// carried by the last error floors the wait. A final error is returned
// as fn produced it; exhaustion and cancellation wrap the last error.
func (p RetryPolicy) Do(ctx context.Context, fn func(attempt int) error, retryable func(error) bool) error {
	attempts := max(p.MaxAttempts, 1)
	var last error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			t := time.NewTimer(p.Delay(i-1, last))
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return fmt.Errorf("%w (last error: %w)", ctx.Err(), last)
			}
		}
		if last = fn(i); last == nil || !retryable(last) {
			return last
		}
	}
	if attempts == 1 {
		return last
	}
	return fmt.Errorf("after %d attempts: %w", attempts, last)
}

// WithRetry enables transport-level retries: backpressure rejections
// (queue_full, draining) are retried for every method — the server rejects
// them before any side effect — while transport errors and 5xx responses
// are retried only for idempotent GETs. Backoff follows the policy; the
// request's context bounds the whole retry loop.
func WithRetry(p RetryPolicy) Option {
	pol := p.withDefaults()
	return func(c *Client) { c.retry = &pol }
}

// New builds a client for the server at base (e.g. "http://host:8080"; a
// trailing slash is tolerated).
func New(base string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(base, "/"), hc: http.DefaultClient}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Base returns the base URL the client targets — useful when a test or
// router holds one client per shard and needs to map responses back to
// backends.
func (c *Client) Base() string { return c.base }

// Health fetches /healthz and reports whether the daemon declared itself
// live. The document carries the instance identity when the daemon runs
// as a shard (-instance); a 503 (draining) returns ok=false with the
// decoded document and a nil error — only transport and decoding failures
// error.
func (c *Client) Health(ctx context.Context) (encode.HealthStatus, bool, error) {
	return c.health(ctx, "/healthz")
}

// Ready fetches /readyz, the readiness probe: ok=false when the daemon is
// draining or its job queue is saturated, with queue occupancy in the
// document either way.
func (c *Client) Ready(ctx context.Context) (encode.HealthStatus, bool, error) {
	return c.health(ctx, "/readyz")
}

func (c *Client) health(ctx context.Context, path string) (encode.HealthStatus, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return encode.HealthStatus{}, false, fmt.Errorf("client: building request: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return encode.HealthStatus{}, false, fmt.Errorf("client: GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	var st encode.HealthStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return encode.HealthStatus{}, false, fmt.Errorf("client: decoding %s response: %w", path, err)
	}
	return st, resp.StatusCode == http.StatusOK, nil
}

// APIError is a non-2xx response decoded from the v1 error envelope.
type APIError struct {
	// HTTPStatus is the response status code.
	HTTPStatus int
	// Code is one of the encode.Code* envelope codes ("internal" when the
	// body was not a well-formed envelope).
	Code    string
	Message string
	// State is the job lifecycle state the envelope carried, if any.
	State encode.JobState
	// RetryAfter is the parsed Retry-After delay (zero when absent), set
	// on queue_full rejections.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	msg := fmt.Sprintf("phmsed: %s (http %d): %s", e.Code, e.HTTPStatus, e.Message)
	if e.State != "" {
		msg += fmt.Sprintf(" (state %s)", e.State)
	}
	return msg
}

// Code returns err's envelope code when err is (or wraps) an *APIError,
// and "" otherwise.
func Code(err error) string {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Code
	}
	return ""
}

// HasCode reports whether err is an *APIError with the given envelope code.
func HasCode(err error, code string) bool { return Code(err) == code }

// IsNotFound reports whether err is the API's not_found error.
func IsNotFound(err error) bool { return HasCode(err, encode.CodeNotFound) }

// IsQueueFull reports whether err is the API's queue_full backpressure error.
func IsQueueFull(err error) bool { return HasCode(err, encode.CodeQueueFull) }

// IsTopologyMismatch reports whether err is the API's topology_mismatch
// warm-start rejection.
func IsTopologyMismatch(err error) bool { return HasCode(err, encode.CodeTopologyMismatch) }

// do issues a request under the client's retry policy (none by default)
// and decodes a 2xx JSON body into out (skipped when out is nil). Non-2xx
// responses become *APIError.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	if c.retry == nil {
		return c.doOnce(ctx, method, path, body, out)
	}
	return c.retry.Do(ctx, func(int) error { return c.doOnce(ctx, method, path, body, out) },
		func(err error) bool { return retryableRequest(method, err) })
}

// retryableRequest reports whether a failed request may be reissued:
// backpressure rejections never had side effects, so any method retries;
// transport errors and 5xx responses could have reached a non-idempotent
// handler, so only GETs retry through them.
func retryableRequest(method string, err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		if ae.Code == encode.CodeQueueFull || ae.Code == encode.CodeDraining {
			return true
		}
		return method == http.MethodGet && ae.HTTPStatus >= 500
	}
	// Not an envelope: the request never produced a response (dial/reset/
	// timeout). Context errors are deliberate and final.
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return method == http.MethodGet
}

// doOnce issues exactly one request.
func (c *Client) doOnce(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("client: building request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.bearer != "" {
		req.Header.Set("Authorization", "Bearer "+c.bearer)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return DecodeError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decoding %s %s response: %w", method, path, err)
	}
	return nil
}

// DecodeError maps a non-2xx response onto *APIError, tolerating bodies
// that are not well-formed envelopes (proxies, panics): those keep their
// first 200 bytes as the message. It reads resp.Body but leaves closing
// it to the caller. Exported so the routing tier decodes the shards'
// rejections exactly as this client does.
func DecodeError(resp *http.Response) error {
	ae := &APIError{HTTPStatus: resp.StatusCode, Code: encode.CodeInternal}
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
			ae.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var env encode.ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err == nil && env.Error.Code != "" {
		ae.Code = env.Error.Code
		ae.Message = env.Error.Message
		ae.State = env.Error.State
	} else {
		ae.Message = strings.TrimSpace(string(raw[:min(len(raw), 200)]))
	}
	return ae
}

// Submit posts a problem for asynchronous solving and returns the accepted
// job's status snapshot.
func (c *Client) Submit(ctx context.Context, p *molecule.Problem, params encode.SolveParams) (encode.JobStatus, error) {
	return c.submit(ctx, p, params, nil)
}

// WarmStart posts a problem that continues from the retained posterior of
// a prior job (see SolveParams.KeepPosterior). The problem must be over
// the same molecule as the referenced posterior; the server rejects a
// mismatch with the topology_mismatch code.
func (c *Client) WarmStart(ctx context.Context, p *molecule.Problem, params encode.SolveParams, fromJob string) (encode.JobStatus, error) {
	return c.submit(ctx, p, params, &encode.WarmStartRef{Job: fromJob})
}

func (c *Client) submit(ctx context.Context, p *molecule.Problem, params encode.SolveParams, warm *encode.WarmStartRef) (encode.JobStatus, error) {
	body, err := encode.MarshalSolveRequest(p, params, warm)
	if err != nil {
		return encode.JobStatus{}, fmt.Errorf("client: encoding problem: %w", err)
	}
	var st encode.JobStatus
	if err := c.do(ctx, http.MethodPost, "/v1/solve", body, &st); err != nil {
		return encode.JobStatus{}, err
	}
	return st, nil
}

// Status returns the job's current status snapshot.
func (c *Client) Status(ctx context.Context, id string) (encode.JobStatus, error) {
	return c.status(ctx, id, 0)
}

// status is one status exchange; a positive wait asks the daemon to hold
// the answer until the job is terminal or the wait has elapsed.
func (c *Client) status(ctx context.Context, id string, wait time.Duration) (encode.JobStatus, error) {
	path := "/v1/jobs/" + url.PathEscape(id)
	if ms := wait.Milliseconds(); ms > 0 {
		path += "?wait=" + strconv.FormatInt(ms, 10)
	}
	var st encode.JobStatus
	if err := c.do(ctx, http.MethodGet, path, nil, &st); err != nil {
		return encode.JobStatus{}, err
	}
	return st, nil
}

// Wait blocks until the job reaches one of the wanted states (default: any
// terminal state) or ctx ends, and returns the matching snapshot. When
// every wanted state is terminal it long-polls: each status request carries
// ?wait= and the daemon answers when the job finishes, so a job costs one
// status exchange however long it runs. poll (default 5 ms) is the pause
// between rounds; it sets the cadence only when a non-terminal state is
// wanted or the daemon ignores ?wait=.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration, states ...encode.JobState) (encode.JobStatus, error) {
	return c.wait(ctx, id, poll, states, c.status)
}

// WaitRetry waits like Wait but rides through transient failures of a
// status round — transport errors and 5xx responses — with the client's
// retry backoff (the WithRetry policy, or its defaults) instead of
// returning on the first hiccup. It gives up after MaxAttempts consecutive
// failed rounds, on a non-transient error (e.g. not_found), or when ctx
// ends.
func (c *Client) WaitRetry(ctx context.Context, id string, poll time.Duration, states ...encode.JobState) (encode.JobStatus, error) {
	pol := RetryPolicy{}.withDefaults()
	if c.retry != nil {
		pol = *c.retry
	}
	return c.wait(ctx, id, poll, states, func(ctx context.Context, id string, wait time.Duration) (encode.JobStatus, error) {
		var st encode.JobStatus
		err := pol.Do(ctx, func(int) (err error) {
			st, err = c.status(ctx, id, wait)
			return err
		}, func(err error) bool { return retryableRequest(http.MethodGet, err) })
		if err != nil {
			err = fmt.Errorf("client: polling job %s: %w", id, err)
		}
		return st, err
	})
}

// wait is the loop behind Wait and WaitRetry; status is one round.
func (c *Client) wait(ctx context.Context, id string, poll time.Duration, states []encode.JobState,
	status func(context.Context, string, time.Duration) (encode.JobStatus, error)) (encode.JobStatus, error) {
	if poll <= 0 {
		poll = 5 * time.Millisecond
	}
	longPoll := true // the daemon can only park on completion
	for _, want := range states {
		longPoll = longPoll && want.Terminal()
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		var hold time.Duration
		if longPoll {
			hold = c.holdFor(ctx)
		}
		st, err := status(ctx, id, hold)
		if err != nil {
			return encode.JobStatus{}, err
		}
		if len(states) == 0 {
			if st.State.Terminal() {
				return st, nil
			}
		} else {
			for _, want := range states {
				if st.State == want {
					return st, nil
				}
			}
		}
		select {
		case <-ctx.Done():
			return st, fmt.Errorf("client: waiting for job %s (last state %s): %w", id, st.State, ctx.Err())
		case <-t.C:
		}
	}
}

// holdFor sizes the ?wait= of one long-poll round: the daemon's cap,
// clipped to what ctx has left and to half of a configured http.Client
// timeout, so the answer always arrives before either gives up on it.
func (c *Client) holdFor(ctx context.Context) time.Duration {
	hold := encode.MaxStatusWait
	if deadline, ok := ctx.Deadline(); ok {
		hold = min(hold, time.Until(deadline))
	}
	if c.hc.Timeout > 0 {
		hold = min(hold, c.hc.Timeout/2)
	}
	return hold
}

// Result fetches the solution of a done job.
func (c *Client) Result(ctx context.Context, id string) (encode.SolutionDoc, error) {
	var doc encode.SolutionDoc
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/result", nil, &doc); err != nil {
		return encode.SolutionDoc{}, err
	}
	return doc, nil
}

// Posterior fetches a job's retained posterior: positions and the
// per-coordinate covariance diagonal. With full=true the response is
// everything the job retained — for a flat-mode job that adds the 3n×3n
// covariance matrix (≈ 20·(3n)² bytes of JSON); a hierarchical job keeps
// none, so its document is the same either way.
func (c *Client) Posterior(ctx context.Context, id string, full bool) (encode.PosteriorDoc, error) {
	path := "/v1/jobs/" + url.PathEscape(id) + "/posterior"
	if full {
		path += "?cov=full"
	}
	var doc encode.PosteriorDoc
	if err := c.do(ctx, http.MethodGet, path, nil, &doc); err != nil {
		return encode.PosteriorDoc{}, err
	}
	return doc, nil
}

// Cancel cancels a queued or running job and returns its status snapshot.
func (c *Client) Cancel(ctx context.Context, id string) (encode.JobStatus, error) {
	var st encode.JobStatus
	if err := c.do(ctx, http.MethodPost, "/v1/jobs/"+url.PathEscape(id)+"/cancel", nil, &st); err != nil {
		return encode.JobStatus{}, err
	}
	return st, nil
}

// ListOptions filter and paginate the job listing.
type ListOptions struct {
	// State restricts the listing to one lifecycle state ("" = all).
	State encode.JobState
	// Limit caps the page size (0 = server default of 50).
	Limit int
	// After resumes a listing strictly after this job id (the NextAfter
	// cursor of the previous page).
	After string
}

// List returns submission-ordered job status summaries. The server prunes
// old terminal records beyond its retention bound, so the listing is a
// window over recent jobs.
func (c *Client) List(ctx context.Context, opts ListOptions) (encode.JobList, error) {
	q := url.Values{}
	if opts.State != "" {
		q.Set("state", string(opts.State))
	}
	if opts.Limit > 0 {
		q.Set("limit", strconv.Itoa(opts.Limit))
	}
	if opts.After != "" {
		q.Set("after", opts.After)
	}
	path := "/v1/jobs"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var list encode.JobList
	if err := c.do(ctx, http.MethodGet, path, nil, &list); err != nil {
		return encode.JobList{}, err
	}
	return list, nil
}
