package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"phmse/internal/client"
	"phmse/internal/constraint"
	"phmse/internal/encode"
	"phmse/internal/geom"
	"phmse/internal/molecule"
)

// problemJSON renders a problem in the interchange format.
func problemJSON(t *testing.T, p *molecule.Problem) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := encode.WriteProblem(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// helix returns a small anchored helix problem that converges quickly
// under default solver parameters.
func helix(bp int) *molecule.Problem {
	return molecule.WithAnchors(molecule.Helix(bp), 4, 0.05)
}

// withExtraDistances returns a problem over the same molecule with a few
// additional long-range distance measurements sampled from the reference
// geometry — same structure hash, different topology hash.
func withExtraDistances(p *molecule.Problem) *molecule.Problem {
	n := len(p.Atoms)
	cons := append([]constraint.Constraint(nil), p.Constraints...)
	for _, pr := range [][2]int{{0, n - 1}, {1, n - 2}, {n / 4, 3 * n / 4}} {
		d := geom.Dist(p.Atoms[pr[0]].Pos, p.Atoms[pr[1]].Pos)
		cons = append(cons, constraint.Distance{I: pr[0], J: pr[1], Target: d, Sigma: 0.1})
	}
	return &molecule.Problem{Name: p.Name + "+extra", Atoms: p.Atoms, Constraints: cons, Tree: p.Tree}
}

// slowParams makes a job effectively non-converging: an unreachable
// tolerance with a huge cycle budget, so it runs until cancelled.
func slowParams() encode.SolveParams {
	return encode.SolveParams{Tol: 1e-12, MaxCycles: 1_000_000, Perturb: 0.4, Seed: 17}
}

// quickParams converges fast for the anchored helix problems.
func quickParams() encode.SolveParams {
	return encode.SolveParams{Perturb: 0.4, Seed: 17}
}

// newTestServer starts a server and returns it with a typed client bound
// to its base URL — the only HTTP surface the happy-path tests use.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *client.Client) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		// Force-drain whatever the test left running, then close.
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		srv.Shutdown(ctx)
		ts.Close()
	})
	return srv, ts, client.New(ts.URL)
}

// doJSON issues a raw request and decodes the JSON response into out. The
// error-path tests keep this low-level escape hatch so the wire format
// itself (envelope shape, status codes) stays pinned independently of the
// client's decoding.
func doJSON(t *testing.T, method, url string, body []byte, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func submit(t *testing.T, c *client.Client, p *molecule.Problem, params encode.SolveParams) JobStatus {
	t.Helper()
	st, err := c.Submit(context.Background(), p, params)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st.ID == "" {
		t.Fatal("submit: no job id")
	}
	return st
}

// waitState polls until the job reaches any of the wanted states.
func waitState(t *testing.T, c *client.Client, id string, want ...JobState) JobStatus {
	t.Helper()
	// Generous: the race detector slows solves by an order of magnitude.
	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()
	st, err := c.Wait(ctx, id, 0, want...)
	if err != nil {
		t.Fatalf("job %s did not reach %v: %v", id, want, err)
	}
	return st
}

func apiErr(t *testing.T, err error) *client.APIError {
	t.Helper()
	var ae *client.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("error is not an *client.APIError: %v", err)
	}
	return ae
}

func TestSubmitPollResult(t *testing.T) {
	_, ts, c := newTestServer(t, Config{MaxProcs: 2, MaxTeam: 1})
	ctx := context.Background()
	p := helix(2)
	st := submit(t, c, p, quickParams())
	st = waitState(t, c, st.ID, StateDone, StateFailed)
	if st.State != StateDone {
		t.Fatalf("job failed: %+v", st)
	}
	if st.Cycle == 0 {
		t.Fatalf("no cycle progress recorded: %+v", st)
	}

	doc, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	if !doc.Converged {
		t.Fatalf("solution did not converge: %+v", doc)
	}
	if len(doc.Positions) != len(p.Atoms) || len(doc.Variances) != len(p.Atoms) {
		t.Fatalf("result has %d positions, %d variances; want %d",
			len(doc.Positions), len(doc.Variances), len(p.Atoms))
	}

	// PDB export of the same result (format negotiation is outside the
	// typed client's JSON surface).
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result?format=pdb")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pdbBuf bytes.Buffer
	pdbBuf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(pdbBuf.String(), "ATOM") {
		t.Fatalf("pdb export: status %d, body %q...", resp.StatusCode, pdbBuf.String()[:min(80, pdbBuf.Len())])
	}
}

// Four helix jobs submitted simultaneously all complete and converge — the
// concurrency acceptance criterion.
func TestConcurrentSolves(t *testing.T) {
	_, _, c := newTestServer(t, Config{MaxProcs: 4, MaxTeam: 1, QueueDepth: 8})
	ctx := context.Background()
	const n = 4
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Seeds 17–19 are known to converge for both helix sizes in
			// hierarchical mode within the cycle budget.
			st := submit(t, c, helix(1+i%2), encode.SolveParams{Perturb: 0.4, Seed: int64(17 + i%3), MaxCycles: 400})
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	for _, id := range ids {
		st := waitState(t, c, id, StateDone, StateFailed, StateCancelled)
		if st.State != StateDone {
			t.Fatalf("job %s: %+v", id, st)
		}
		doc, err := c.Result(ctx, id)
		if err != nil {
			t.Fatalf("result %s: %v", id, err)
		}
		if !doc.Converged {
			t.Fatalf("job %s did not converge", id)
		}
	}
}

// Re-submitting the same topology hits the plan cache, visible in /metrics.
func TestPlanCacheHit(t *testing.T) {
	srv, ts, c := newTestServer(t, Config{MaxProcs: 2, MaxTeam: 2})
	p := helix(1)
	first := submit(t, c, p, quickParams())
	waitState(t, c, first.ID, StateDone, StateFailed)

	// Same topology, different measurement noise and seed: must reuse the
	// cached decomposition and schedule.
	second := submit(t, c, p, encode.SolveParams{Perturb: 0.3, Seed: 99})
	st := waitState(t, c, second.ID, StateDone, StateFailed)
	if st.State != StateDone {
		t.Fatalf("second job: %+v", st)
	}
	if !st.PlanCacheHit {
		t.Fatalf("second solve of the same topology missed the plan cache: %+v", st)
	}

	m := srv.Snapshot()
	if m.PlanCache.Hits < 1 || m.PlanCache.Misses < 1 {
		t.Fatalf("plan cache metrics: %+v", m.PlanCache)
	}
	var viaHTTP Metrics
	if code := doJSON(t, "GET", ts.URL+"/metrics", nil, &viaHTTP); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if viaHTTP.PlanCache.Hits < 1 {
		t.Fatalf("metrics endpoint reports no cache hits: %+v", viaHTTP.PlanCache)
	}
	if viaHTTP.OpTimes.TotalSeconds <= 0 {
		t.Fatalf("metrics endpoint reports no op-class time: %+v", viaHTTP.OpTimes)
	}
}

// A full queue rejects further submissions with 429 backpressure carrying
// the queue_full envelope code and a Retry-After hint.
func TestQueueFullBackpressure(t *testing.T) {
	_, _, c := newTestServer(t, Config{MaxProcs: 1, MaxTeam: 1, QueueDepth: 1})
	ctx := context.Background()
	// One slow job occupies the worker; one more fills the queue.
	running := submit(t, c, helix(1), slowParams())
	waitState(t, c, running.ID, StateRunning)
	queued := submit(t, c, helix(1), slowParams())

	_, err := c.Submit(ctx, helix(1), slowParams())
	if !client.IsQueueFull(err) {
		t.Fatalf("overflow submit error = %v, want queue_full", err)
	}
	ae := apiErr(t, err)
	if ae.HTTPStatus != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d, want 429", ae.HTTPStatus)
	}
	if ae.Message == "" {
		t.Fatal("overflow submit: empty error message")
	}
	if ae.RetryAfter <= 0 {
		t.Fatalf("overflow submit: no Retry-After hint (%v)", ae.RetryAfter)
	}

	// Cancelling the running job lets the queued one start.
	if _, err := c.Cancel(ctx, running.ID); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	waitState(t, c, running.ID, StateCancelled)
	waitState(t, c, queued.ID, StateRunning)
	if _, err := c.Cancel(ctx, queued.ID); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	waitState(t, c, queued.ID, StateCancelled)
}

// Cancelling a running job stops it before convergence with state
// "cancelled"; cancelling a queued job never runs it.
func TestCancellation(t *testing.T) {
	_, ts, c := newTestServer(t, Config{MaxProcs: 1, MaxTeam: 1, QueueDepth: 4})
	ctx := context.Background()
	running := submit(t, c, helix(2), slowParams())
	st := waitState(t, c, running.ID, StateRunning)
	// Let it make some cycles so the cancellation is genuinely mid-solve.
	deadline := time.Now().Add(10 * time.Second)
	for st.Cycle < 2 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
		st = waitState(t, c, running.ID, StateRunning, StateCancelled, StateDone, StateFailed)
		if st.State != StateRunning {
			t.Fatalf("slow job left running state early: %+v", st)
		}
	}

	queued := submit(t, c, helix(1), slowParams())
	cancelled, err := c.Cancel(ctx, queued.ID)
	if err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	if cancelled.State != StateCancelled {
		t.Fatalf("queued job after cancel: %+v", cancelled)
	}

	// The DELETE alias of the cancel endpoint stays covered at the wire
	// level.
	doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+running.ID, nil, nil)
	st = waitState(t, c, running.ID, StateCancelled)
	if st.Cycle >= 1_000_000 {
		t.Fatalf("job ran to completion despite cancellation: %+v", st)
	}
	// A cancelled job has no result; the envelope carries the state.
	_, err = c.Result(ctx, running.ID)
	if !client.HasCode(err, encode.CodeNoResult) {
		t.Fatalf("result of cancelled job: %v, want no_result", err)
	}
	ae := apiErr(t, err)
	if ae.HTTPStatus != http.StatusConflict || ae.State != StateCancelled {
		t.Fatalf("result error: %+v", ae)
	}
}

// A per-request timeout fails the job with a deadline error.
func TestJobTimeout(t *testing.T) {
	_, _, c := newTestServer(t, Config{MaxProcs: 1, MaxTeam: 1})
	params := slowParams()
	params.TimeoutMillis = 50
	st := submit(t, c, helix(2), params)
	st = waitState(t, c, st.ID, StateDone, StateFailed, StateCancelled)
	if st.State != StateFailed || !strings.Contains(st.Error, "timeout") {
		t.Fatalf("timed-out job: %+v", st)
	}
}

// Shutdown drains the running job, rejects new submissions with 503, and
// flips /healthz to draining.
func TestGracefulShutdownDrains(t *testing.T) {
	srv, ts, c := newTestServer(t, Config{MaxProcs: 1, MaxTeam: 1, QueueDepth: 4})
	ctx := context.Background()
	running := submit(t, c, helix(2), slowParams())
	waitState(t, c, running.ID, StateRunning)

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()

	// Intake must close promptly even while a job is still running.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := c.Submit(ctx, helix(1), slowParams())
		if client.HasCode(err, encode.CodeDraining) {
			if ae := apiErr(t, err); ae.HTTPStatus != http.StatusServiceUnavailable {
				t.Fatalf("draining reject: status %d, want 503", ae.HTTPStatus)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("submissions still accepted during drain (last err %v)", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if code := doJSON(t, "GET", ts.URL+"/healthz", nil, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: status %d, want 503", code)
	}

	// The in-flight job keeps running until released; cancelling it lets
	// the drain complete without hitting the forced path.
	c.Cancel(ctx, running.ID)
	select {
	case err := <-shutdownErr:
		if err != nil {
			t.Fatalf("graceful drain returned %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("shutdown did not complete after the running job finished")
	}
	waitState(t, c, running.ID, StateCancelled)
}

// Forced shutdown (expired drain context) cancels in-flight jobs itself.
func TestForcedShutdownCancels(t *testing.T) {
	srv, _, c := newTestServer(t, Config{MaxProcs: 1, MaxTeam: 1})
	running := submit(t, c, helix(2), slowParams())
	waitState(t, c, running.ID, StateRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("forced drain error = %v, want deadline exceeded", err)
	}
	waitState(t, c, running.ID, StateCancelled)
}

// Every failing endpoint answers with the structured envelope:
// {"error": {"code", "message", "state"}} — asserted at the wire level so
// the shape is pinned independently of the client.
func TestBadRequests(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{MaxProcs: 1, MaxTeam: 1})
	cases := []struct {
		name string
		body string
	}{
		{"empty", ``},
		{"no problem", `{}`},
		{"malformed json", `{"problem": {`},
		{"bad mode", fmt.Sprintf(`{"problem": %s, "params": {"mode": "diagonal"}}`, problemJSON(t, helix(1)))},
		{"no atoms", `{"problem": {"name": "empty"}}`},
		{"bad constraint", `{"problem": {"atoms": [{"pos": [0,0,0]}], "constraints": [{"type": "distance", "i": 0, "j": 5, "sigma": 1}]}}`},
		{"empty warm ref", fmt.Sprintf(`{"problem": %s, "warm_start": {}}`, problemJSON(t, helix(1)))},
		{"second document", fmt.Sprintf(`{"problem": %s}{}`, problemJSON(t, helix(1)))},
	}
	for _, tc := range cases {
		var env encode.ErrorEnvelope
		if code := doJSON(t, "POST", ts.URL+"/v1/solve", []byte(tc.body), &env); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		} else if env.Error.Code != encode.CodeBadRequest || env.Error.Message == "" {
			t.Errorf("%s: envelope %+v, want code %q", tc.name, env, encode.CodeBadRequest)
		}
	}
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/result", "/v1/jobs/nope/posterior"} {
		var env encode.ErrorEnvelope
		if code := doJSON(t, "GET", ts.URL+path, nil, &env); code != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, code)
		} else if env.Error.Code != encode.CodeNotFound {
			t.Errorf("%s: envelope %+v, want code %q", path, env, encode.CodeNotFound)
		}
	}
	var env encode.ErrorEnvelope
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs?state=bogus", nil, &env); code != http.StatusBadRequest {
		t.Errorf("bad list state: status %d, want 400", code)
	} else if env.Error.Code != encode.CodeBadRequest {
		t.Errorf("bad list state: envelope %+v", env)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs?limit=-3", nil, &env); code != http.StatusBadRequest {
		t.Errorf("bad list limit: status %d, want 400", code)
	}
}

// The warm-start flow end to end: keep a posterior, fetch it, re-solve an
// extended problem from it in fewer cycles, and reject incompatible or
// unusable references with the right envelope codes.
func TestWarmStartAPI(t *testing.T) {
	srv, _, c := newTestServer(t, Config{MaxProcs: 2, MaxTeam: 1, QueueDepth: 8})
	ctx := context.Background()
	base := helix(1)
	params := quickParams()
	params.MaxCycles = 500

	keep := params
	keep.KeepPosterior = true
	baseJob := submit(t, c, base, keep)
	baseSt := waitState(t, c, baseJob.ID, StateDone, StateFailed)
	if baseSt.State != StateDone {
		t.Fatalf("base job: %+v", baseSt)
	}
	if !baseSt.PosteriorKept {
		t.Fatalf("posterior not retained: %+v", baseSt)
	}

	// The retained posterior is exported in problem atom order. A
	// hierarchical job keeps positions and the diagonal, so cov=full —
	// everything retained — has no matrix to add.
	doc, err := c.Posterior(ctx, baseJob.ID, false)
	if err != nil {
		t.Fatalf("posterior: %v", err)
	}
	if doc.Job != baseJob.ID || doc.Atoms != len(base.Atoms) {
		t.Fatalf("posterior doc identity: %+v", doc)
	}
	if len(doc.Positions) != len(base.Atoms) || len(doc.CoordVariances) != 3*len(base.Atoms) {
		t.Fatalf("posterior doc sizes: %d positions, %d variances", len(doc.Positions), len(doc.CoordVariances))
	}
	if len(doc.Cov) != 0 {
		t.Fatalf("posterior doc carried full covariance without cov=full")
	}
	if doc.StructureHash == "" || doc.TopologyHash == "" {
		t.Fatalf("posterior doc missing hashes: %+v", doc)
	}
	full, err := c.Posterior(ctx, baseJob.ID, true)
	if err != nil {
		t.Fatalf("posterior cov=full: %v", err)
	}
	if full.Cov != nil || len(full.CoordVariances) != 3*len(base.Atoms) {
		t.Fatalf("hierarchical cov=full posterior: %d covariance rows, %d variances", len(full.Cov), len(full.CoordVariances))
	}
	// A flat job keeps the matrix its continuation reads, served only on
	// request.
	flat := cappedParams()
	flat.Mode = "flat"
	flat.KeepPosterior = true
	flatJob := submit(t, c, base, flat)
	waitState(t, c, flatJob.ID, StateDone)
	if doc, err = c.Posterior(ctx, flatJob.ID, false); err != nil || len(doc.Cov) != 0 {
		t.Fatalf("flat posterior without cov=full: %d covariance rows, err %v", len(doc.Cov), err)
	}
	if full, err = c.Posterior(ctx, flatJob.ID, true); err != nil || len(full.Cov) != 3*len(base.Atoms) {
		t.Fatalf("flat cov=full posterior has %d covariance rows, want %d (err %v)", len(full.Cov), 3*len(base.Atoms), err)
	}

	// Cold vs warm on the extended problem: the warm job must converge in
	// strictly fewer cycles.
	combined := withExtraDistances(base)
	coldJob := submit(t, c, combined, params)
	cold := waitState(t, c, coldJob.ID, StateDone, StateFailed)
	if cold.State != StateDone {
		t.Fatalf("cold combined job: %+v", cold)
	}

	warmJob, err := c.WarmStart(ctx, combined, params, baseJob.ID)
	if err != nil {
		t.Fatalf("warm submit: %v", err)
	}
	if warmJob.WarmStartFrom != baseJob.ID {
		t.Fatalf("warm job status missing provenance: %+v", warmJob)
	}
	warm := waitState(t, c, warmJob.ID, StateDone, StateFailed)
	if warm.State != StateDone {
		t.Fatalf("warm combined job: %+v", warm)
	}
	if warm.Cycle >= cold.Cycle {
		t.Fatalf("warm start took %d cycles, cold %d — want strictly fewer", warm.Cycle, cold.Cycle)
	}

	// A different molecule cannot consume the posterior.
	_, err = c.WarmStart(ctx, helix(2), params, baseJob.ID)
	if !client.IsTopologyMismatch(err) {
		t.Fatalf("mismatched warm start error = %v, want topology_mismatch", err)
	}
	if ae := apiErr(t, err); ae.HTTPStatus != http.StatusConflict {
		t.Fatalf("mismatched warm start: status %d, want 409", ae.HTTPStatus)
	}

	// An unknown job is 404; a finished job that kept nothing is 409.
	_, err = c.WarmStart(ctx, combined, params, "job-999999")
	if !client.IsNotFound(err) {
		t.Fatalf("unknown warm ref error = %v, want not_found", err)
	}
	noKeep := submit(t, c, base, params)
	waitState(t, c, noKeep.ID, StateDone, StateFailed)
	_, err = c.WarmStart(ctx, combined, params, noKeep.ID)
	if !client.HasCode(err, encode.CodeNoResult) {
		t.Fatalf("keepless warm ref error = %v, want no_result", err)
	}
	if _, err := c.Posterior(ctx, noKeep.ID, false); !client.HasCode(err, encode.CodeNoResult) {
		t.Fatalf("keepless posterior fetch error = %v, want no_result", err)
	}

	m := srv.Snapshot()
	if m.Posteriors.Entries < 1 || m.Posteriors.Stored < 1 || m.Posteriors.Hits < 1 {
		t.Fatalf("posterior store metrics: %+v", m.Posteriors)
	}
	if m.Posteriors.Bytes <= 0 || m.Posteriors.Bytes > m.Posteriors.CapacityBytes {
		t.Fatalf("posterior store accounting: %+v", m.Posteriors)
	}
}

// A posterior too large for the store budget is rejected, not kept, and a
// warm reference to it is a usable-error 409.
func TestPosteriorBudgetRejection(t *testing.T) {
	_, _, c := newTestServer(t, Config{MaxProcs: 1, MaxTeam: 1, PosteriorBytes: 64})
	ctx := context.Background()
	keep := quickParams()
	keep.KeepPosterior = true
	st := submit(t, c, helix(1), keep)
	st = waitState(t, c, st.ID, StateDone, StateFailed)
	if st.State != StateDone {
		t.Fatalf("job: %+v", st)
	}
	if st.PosteriorKept {
		t.Fatalf("64-byte budget retained a posterior: %+v", st)
	}
	if _, err := c.Posterior(ctx, st.ID, false); !client.HasCode(err, encode.CodeNoResult) {
		t.Fatalf("posterior fetch error = %v, want no_result", err)
	}
	if _, err := c.WarmStart(ctx, helix(1), quickParams(), st.ID); !client.HasCode(err, encode.CodeNoResult) {
		t.Fatalf("warm ref error = %v, want no_result", err)
	}
}

// GET /v1/jobs lists jobs in submission order with state filtering and
// cursor pagination.
func TestJobListing(t *testing.T) {
	_, _, c := newTestServer(t, Config{MaxProcs: 2, MaxTeam: 1, QueueDepth: 8})
	ctx := context.Background()
	const n = 5
	ids := make([]string, n)
	for i := range ids {
		ids[i] = submit(t, c, helix(1), quickParams()).ID
	}
	for _, id := range ids {
		if st := waitState(t, c, id, StateDone, StateFailed); st.State != StateDone {
			t.Fatalf("job %s: %+v", id, st)
		}
	}

	all, err := c.List(ctx, client.ListOptions{})
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(all.Jobs) != n {
		t.Fatalf("listed %d jobs, want %d", len(all.Jobs), n)
	}
	for i, st := range all.Jobs {
		if st.ID != ids[i] {
			t.Fatalf("listing out of submission order: position %d has %s, want %s", i, st.ID, ids[i])
		}
	}
	if all.NextAfter != "" {
		t.Fatalf("complete listing still paginates: next_after %q", all.NextAfter)
	}

	// Page through with limit 2: 2 + 2 + 1 jobs, cursors chaining.
	var paged []string
	after := ""
	for pages := 0; pages < 10; pages++ {
		page, err := c.List(ctx, client.ListOptions{Limit: 2, After: after})
		if err != nil {
			t.Fatalf("page after %q: %v", after, err)
		}
		for _, st := range page.Jobs {
			paged = append(paged, st.ID)
		}
		if page.NextAfter == "" {
			break
		}
		after = page.NextAfter
	}
	if len(paged) != n {
		t.Fatalf("pagination yielded %d jobs, want %d: %v", len(paged), n, paged)
	}
	for i := range paged {
		if paged[i] != ids[i] {
			t.Fatalf("pagination out of order: %v", paged)
		}
	}

	// State filter: all five are done; none are cancelled.
	done, err := c.List(ctx, client.ListOptions{State: StateDone})
	if err != nil {
		t.Fatalf("list done: %v", err)
	}
	if len(done.Jobs) != n {
		t.Fatalf("listed %d done jobs, want %d", len(done.Jobs), n)
	}
	cancelled, err := c.List(ctx, client.ListOptions{State: StateCancelled})
	if err != nil {
		t.Fatalf("list cancelled: %v", err)
	}
	if len(cancelled.Jobs) != 0 {
		t.Fatalf("listed %d cancelled jobs, want 0", len(cancelled.Jobs))
	}
}
