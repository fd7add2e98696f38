package server

import (
	"context"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"phmse/internal/client"
	"phmse/internal/encode"
	"phmse/internal/faultinject"
	"phmse/internal/filter"
	"phmse/internal/molecule"
)

// named returns a copy of p under a distinctive name, so a fault hook can
// target exactly one job by its Site.Tag while concurrent jobs over the
// same molecule stay healthy.
func named(p *molecule.Problem, name string) *molecule.Problem {
	return &molecule.Problem{Name: name, Atoms: p.Atoms, Constraints: p.Constraints, Tree: p.Tree}
}

// faultCfg is the daemon the fault tests run: one-processor teams.
func faultCfg() Config {
	return Config{MaxProcs: 2}
}

// A job whose every solve attempt panics must fail cleanly with the
// internal_error code after exhausting its retries, while a concurrent
// healthy job — and the daemon itself — are unaffected.
func TestWorkerPanicIsolated(t *testing.T) {
	const tag = "fault-panic"
	faultinject.Set(&faultinject.Hooks{
		BeforeAttempt: func(got string, attempt int) {
			if got == tag {
				panic("injected worker panic")
			}
		},
	})
	t.Cleanup(faultinject.Reset)

	_, ts, c := newTestServer(t, faultCfg())
	poisoned := submit(t, c, named(helix(1), tag), quickParams())
	healthy := submit(t, c, helix(2), quickParams())

	st := waitState(t, c, poisoned.ID, StateFailed)
	if st.ErrorCode != encode.CodeInternalError {
		t.Fatalf("poisoned job error code = %q, want %q (status %+v)", st.ErrorCode, encode.CodeInternalError, st)
	}
	if st.Retries != maxRetries {
		t.Fatalf("poisoned job retries = %d, want %d", st.Retries, maxRetries)
	}
	if st.FlatFallback {
		t.Fatal("panic is not a numerical failure; flat fallback must not run")
	}
	if hst := waitState(t, c, healthy.ID, StateDone); hst.Error != "" {
		t.Fatalf("healthy job failed alongside the poisoned one: %+v", hst)
	}

	// The daemon survived every recovered panic: it still accepts and
	// completes new work, and the recoveries are visible in /metrics.
	after := submit(t, c, helix(1), quickParams())
	waitState(t, c, after.ID, StateDone)
	var m Metrics
	if code := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &m); code != http.StatusOK {
		t.Fatalf("/metrics: http %d", code)
	}
	if m.Jobs.Panics < maxRetries+1 {
		t.Fatalf("metrics panics = %d, want at least %d", m.Jobs.Panics, maxRetries+1)
	}
	if m.Jobs.Retries < maxRetries {
		t.Fatalf("metrics retries = %d, want at least %d", m.Jobs.Retries, maxRetries)
	}
}

// A panic inside a sibling subtree of a two-processor job — a Cholesky hook
// that panics on every backbone leaf of a protein, whose residue fans post
// up to a dozen subtrees at once, so the crew's helper runs some of them —
// fails the job with internal_error, and the daemon keeps serving: the
// attempt's recover barrier is on the posting goroutine, not the helper's.
func TestSubtreePanicOnHelperIsolated(t *testing.T) {
	const tag = "fault-subtree-panic"
	faultinject.Set(&faultinject.Hooks{
		Cholesky: func(s faultinject.Site) bool {
			if s.Tag == tag && strings.HasSuffix(s.Node, ".bb") {
				panic("injected panic in " + s.Node)
			}
			return false
		},
	})
	t.Cleanup(faultinject.Reset)

	_, _, c := newTestServer(t, Config{MaxProcs: 2})
	params := quickParams()
	params.Procs = 2
	params.MaxCycles = 4
	poisoned := submit(t, c, named(molecule.Protein(24, 7), tag), params)
	st := waitState(t, c, poisoned.ID, StateFailed)
	if st.ErrorCode != encode.CodeInternalError || !strings.Contains(st.Error, "injected panic") {
		t.Fatalf("poisoned job: code %q, error %q, want %q carrying the panic", st.ErrorCode, st.Error, encode.CodeInternalError)
	}
	after := submit(t, c, molecule.Protein(24, 7), params)
	if done := waitState(t, c, after.ID, StateDone, StateFailed); done.State != StateDone {
		t.Fatalf("job after the panic: %+v", done)
	}
}

// A job whose every factorization is forced indefinite exhausts its
// retries, is degraded to one flat attempt (which the pervasive hook also
// kills), and fails typed with the indefinite code.
func TestIndefiniteJobFailsWithFlatFallback(t *testing.T) {
	const tag = "fault-chol"
	faultinject.Set(&faultinject.Hooks{
		Cholesky: func(s faultinject.Site) bool { return s.Tag == tag },
	})
	t.Cleanup(faultinject.Reset)

	_, _, c := newTestServer(t, faultCfg())
	poisoned := submit(t, c, named(helix(1), tag), quickParams())
	healthy := submit(t, c, helix(1), quickParams())

	st := waitState(t, c, poisoned.ID, StateFailed)
	if st.ErrorCode != filter.CodeIndefinite {
		t.Fatalf("error code = %q, want %q (status %+v)", st.ErrorCode, filter.CodeIndefinite, st)
	}
	if st.Retries != maxRetries {
		t.Fatalf("retries = %d, want %d", st.Retries, maxRetries)
	}
	if !st.FlatFallback {
		t.Fatal("transient numerical failure should have attempted the flat fallback")
	}
	waitState(t, c, healthy.ID, StateDone)
}

// A warm job whose hierarchical attempt fails numerically degrades to the
// flat organization at once — a retry would solve the same input again —
// which continues from the diagonal a hierarchical posterior carries,
// completes, and keeps what the flat solve produced.
func TestWarmJobFlatFallbackFromDiagonalPosterior(t *testing.T) {
	const tag = "fault-warm-hier"
	var hierAttempts atomic.Int64
	faultinject.Set(&faultinject.Hooks{
		// The flat fallback runs as attempt maxRetries+1.
		BeforeAttempt: func(got string, n int) {
			if got == tag && n <= maxRetries {
				hierAttempts.Add(1)
			}
		},
		// Node is "" in the flat organization: only the hierarchy fails.
		Cholesky: func(s faultinject.Site) bool { return s.Tag == tag && s.Node != "" },
	})
	t.Cleanup(faultinject.Reset)

	_, _, c := newTestServer(t, faultCfg())
	ctx := context.Background()
	keep := quickParams()
	keep.KeepPosterior = true
	base := submit(t, c, helix(1), keep)
	waitState(t, c, base.ID, StateDone)
	if doc, err := c.Posterior(ctx, base.ID, true); err != nil || doc.Cov != nil {
		t.Fatalf("base posterior: %d covariance rows, err %v", len(doc.Cov), err)
	}

	warm, err := c.WarmStart(ctx, named(helix(1), tag), keep, base.ID)
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, c, warm.ID, StateDone, StateFailed)
	if st.State != StateDone || !st.FlatFallback || st.WarmStartFrom != base.ID {
		t.Fatalf("warm job: %+v", st)
	}
	if n := hierAttempts.Load(); n != 1 || st.Retries != 0 {
		t.Fatalf("warm job: %d hierarchical attempts, %d retries; want 1, 0", n, st.Retries)
	}
	doc, err := c.Posterior(ctx, warm.ID, true)
	if err != nil || len(doc.Cov) != 3*doc.Atoms {
		t.Fatalf("fallback job's posterior: %d covariance rows for %d atoms, err %v", len(doc.Cov), doc.Atoms, err)
	}
}

// A job whose state is poisoned with NaN every cycle rolls back each batch,
// makes no progress, exhausts its retries, and fails with the non_finite
// code after the flat fallback.
func TestPoisonedJobFailsNonFinite(t *testing.T) {
	const tag = "fault-nan"
	faultinject.Set(&faultinject.Hooks{
		Poison: func(s faultinject.Site) bool { return s.Tag == tag },
	})
	t.Cleanup(faultinject.Reset)

	_, _, c := newTestServer(t, faultCfg())
	poisoned := submit(t, c, named(helix(1), tag), quickParams())

	st := waitState(t, c, poisoned.ID, StateFailed)
	if st.ErrorCode != filter.CodeNonFinite {
		t.Fatalf("error code = %q, want %q (status %+v)", st.ErrorCode, filter.CodeNonFinite, st)
	}
	if st.Retries != maxRetries {
		t.Fatalf("retries = %d, want %d", st.Retries, maxRetries)
	}
	if !st.FlatFallback {
		t.Fatal("flat fallback should run once the retries are exhausted")
	}
}

// A transient failure on the first attempt only: the automatic retry —
// which re-perturbs from a different seed — succeeds, and the job reports
// how many retries it took.
func TestTransientFailureHealsOnRetry(t *testing.T) {
	const tag = "fault-transient"
	var attempt atomic.Int64
	faultinject.Set(&faultinject.Hooks{
		BeforeAttempt: func(got string, n int) {
			if got == tag {
				attempt.Store(int64(n))
			}
		},
		Cholesky: func(s faultinject.Site) bool {
			return s.Tag == tag && attempt.Load() == 0
		},
	})
	t.Cleanup(faultinject.Reset)

	_, _, c := newTestServer(t, faultCfg())
	st := submit(t, c, named(helix(1), tag), quickParams())

	done := waitState(t, c, st.ID, StateDone)
	if done.Retries < 1 {
		t.Fatalf("retries = %d, want >= 1 (first attempt was poisoned)", done.Retries)
	}
	if done.FlatFallback {
		t.Fatal("retry healed the job; flat fallback must not have run")
	}
	if done.ErrorCode != "" || done.Error != "" {
		t.Fatalf("healed job carries error: %+v", done)
	}
	if _, err := c.Result(context.Background(), st.ID); err != nil {
		t.Fatalf("result of healed job: %v", err)
	}
}

// readyz reflects load and lifecycle: ok when idle, saturated when the
// queue is full, draining once shutdown begins — while healthz keeps
// reporting liveness until the drain.
func TestReadyz(t *testing.T) {
	srv, ts, c := newTestServer(t, Config{MaxProcs: 1, QueueDepth: 1})
	ctx := context.Background()

	var body map[string]any
	if code := doJSON(t, http.MethodGet, ts.URL+"/readyz", nil, &body); code != http.StatusOK {
		t.Fatalf("/readyz idle: http %d body %v", code, body)
	}
	if body["status"] != "ok" {
		t.Fatalf("/readyz idle status = %v", body["status"])
	}

	// Saturate: fill the single worker and the depth-1 queue with
	// non-converging jobs until the server pushes back.
	var ids []string
	for i := 0; ; i++ {
		st, err := c.Submit(ctx, helix(1), slowParams())
		if client.IsQueueFull(err) {
			break
		}
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, st.ID)
		if i > 8 {
			t.Fatal("queue never filled")
		}
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/readyz", nil, &body); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz saturated: http %d body %v", code, body)
	}
	if body["status"] != "saturated" {
		t.Fatalf("/readyz saturated status = %v", body["status"])
	}
	// Liveness is unaffected by saturation.
	if code := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, nil); code != http.StatusOK {
		t.Fatalf("/healthz under saturation: http %d", code)
	}

	// Drain: cancel the stuck jobs so shutdown completes, then verify the
	// probe reports draining.
	for _, id := range ids {
		if _, err := c.Cancel(ctx, id); err != nil {
			t.Fatalf("cancel %s: %v", id, err)
		}
	}
	sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/readyz", nil, &body); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz draining: http %d body %v", code, body)
	}
	if body["status"] != "draining" {
		t.Fatalf("/readyz draining status = %v", body["status"])
	}
}
