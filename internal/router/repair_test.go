package router

// Anti-entropy repair: convergence of stranded posteriors, idempotence,
// the drain fences on both sides of a sweep, and the transfer protocol's
// retry/terminal discipline (transferCall) against a scripted backend.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"phmse/internal/client"
	"phmse/internal/encode"
)

// manualRepairCluster is a cluster whose sweeps run only via RepairNow.
func manualRepairCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	return newClusterWith(t, n, "", func(cfg *Config) { cfg.RepairInterval = -1 })
}

// keepJob submits one keep-posterior job and waits it to done.
func keepJob(t *testing.T, cl *testCluster, bp int) encode.JobStatus {
	t.Helper()
	params := cheapParams()
	params.KeepPosterior = true
	ctx := context.Background()
	st, err := cl.c.Submit(ctx, helix(bp), params)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st, err = cl.c.Wait(ctx, st.ID, 10*time.Millisecond, encode.JobDone)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	return st
}

// holdsJob reports whether the backend's posterior index lists the job.
func holdsJob(t *testing.T, b *backend, id string) bool {
	t.Helper()
	resp, err := http.Get(b.url() + "/v1/posteriors")
	if err != nil {
		t.Fatalf("indexing %s: %v", b.name, err)
	}
	defer resp.Body.Close()
	var idx encode.PosteriorIndex
	if err := json.NewDecoder(resp.Body).Decode(&idx); err != nil {
		t.Fatalf("decoding %s index: %v", b.name, err)
	}
	for _, info := range idx.Posteriors {
		if info.Job == id {
			return true
		}
	}
	return false
}

// strandPosterior moves one posterior from its holder to the wrong shard
// through the raw transfer endpoints — the state an interrupted migration
// or a rejoined crashed shard leaves behind.
func strandPosterior(t *testing.T, from, to *backend, id string) {
	t.Helper()
	resp, err := http.Get(from.url() + "/v1/jobs/" + id + "/posterior?cov=full")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("exporting %s: %v (status %v)", id, err, resp)
	}
	doc, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading export: %v", err)
	}
	req, _ := http.NewRequest(http.MethodPut, to.url()+"/v1/posteriors/"+id, bytes.NewReader(doc))
	req.Header.Set("Content-Type", "application/json")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("importing %s: %v", id, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("import of %s: status %d", id, resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodDelete, from.url()+"/v1/posteriors/"+id, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("deleting %s: %v", id, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete of %s: status %d", id, resp.StatusCode)
	}
}

// other returns the cluster backend that is not b.
func other(t *testing.T, cl *testCluster, b *backend) *backend {
	t.Helper()
	for _, c := range cl.backends {
		if c != b {
			return c
		}
	}
	t.Fatal("no other backend")
	return nil
}

// TestRepairMovesStrandedPosterior: a sweep finds a posterior on a shard
// the ring does not map it to and re-drives it home; a second sweep finds
// nothing to do.
func TestRepairMovesStrandedPosterior(t *testing.T) {
	cl := manualRepairCluster(t, 2)
	ctx := context.Background()
	st := keepJob(t, cl, 6)
	owner := cl.byInstance(t, st.ID)
	wrong := other(t, cl, owner)

	strandPosterior(t, owner, wrong, st.ID)
	if holdsJob(t, owner, st.ID) || !holdsJob(t, wrong, st.ID) {
		t.Fatal("stranding failed to move the posterior off its owner")
	}

	rep := cl.rt.RepairNow(ctx)
	if rep.Repaired != 1 || rep.Failed != 0 {
		t.Fatalf("sweep = %+v, want exactly the stranded posterior repaired", rep)
	}
	if rep.Bytes == 0 {
		t.Fatalf("sweep = %+v, want repaired bytes accounted", rep)
	}
	if !holdsJob(t, owner, st.ID) || holdsJob(t, wrong, st.ID) {
		t.Fatal("posterior not back on its ring owner after the sweep")
	}

	// Idempotence: a converged cluster sweeps to zero.
	rep = cl.rt.RepairNow(ctx)
	if rep.Repaired != 0 || rep.Failed != 0 || rep.Scanned == 0 {
		t.Fatalf("second sweep = %+v, want a scan with nothing to move", rep)
	}

	m := cl.rt.Snapshot()
	if m.Repair.Sweeps != 2 || m.Repair.Repaired != 1 || m.Repair.Failed != 0 {
		t.Fatalf("repair metrics = %+v, want 2 sweeps / 1 repaired", m.Repair)
	}

	// The warm-start location path still finds the posterior at its new
	// home: the router serves the posterior through the owner.
	if _, err := cl.c.Posterior(ctx, st.ID, false); err != nil {
		t.Fatalf("posterior unreachable after repair: %v", err)
	}
}

// TestRepairFencesDrainedSource: a drained shard is never a repair
// source — its stranded holdings stay put — and reactivating it hands
// them back to the next sweep.
func TestRepairFencesDrainedSource(t *testing.T) {
	cl := manualRepairCluster(t, 2)
	ctx := context.Background()
	st := keepJob(t, cl, 6)
	owner := cl.byInstance(t, st.ID)
	wrong := other(t, cl, owner)

	// Drain the non-owner, then strand the posterior onto it: the state a
	// crash-during-decommission can leave. The copy is misplaced (the ring
	// maps it to the owner) but its holder is fenced.
	if rep := cl.rt.retire(ctx, cl.rt.findShard(wrong.url()), false, "drain", time.Second); rep.Migration.Failed != 0 {
		t.Fatalf("drain = %+v, want clean", rep)
	}
	strandPosterior(t, owner, wrong, st.ID)

	rep := cl.rt.RepairNow(ctx)
	if rep.Repaired != 0 || rep.Failed != 0 {
		t.Fatalf("sweep over fenced holder = %+v, want untouched", rep)
	}
	if !holdsJob(t, wrong, st.ID) {
		t.Fatal("repair moved a posterior off a drained shard")
	}

	// Reactivation lifts the fence; the next sweep re-drives the copy to
	// its ring owner.
	if _, err := cl.rt.addShard(ctx, wrong.url()); err != nil {
		t.Fatalf("reactivating: %v", err)
	}
	rep = cl.rt.RepairNow(ctx)
	if rep.Repaired != 1 || rep.Failed != 0 {
		t.Fatalf("post-reactivation sweep = %+v, want the copy re-driven", rep)
	}
	if !holdsJob(t, owner, st.ID) || holdsJob(t, wrong, st.ID) {
		t.Fatal("posterior not re-driven to its owner after reactivation")
	}
}

// TestRepairAfterDrainIsIdempotent: a clean drain evacuates its
// posteriors itself, so the sweep that follows finds a converged cluster
// — repair and drain never fight over the same documents.
func TestRepairAfterDrainIsIdempotent(t *testing.T) {
	cl := manualRepairCluster(t, 2)
	ctx := context.Background()
	st := keepJob(t, cl, 6)
	owner := cl.byInstance(t, st.ID)
	survivor := other(t, cl, owner)

	rep := cl.rt.retire(ctx, cl.rt.findShard(owner.url()), false, "drain", 5*time.Second)
	if rep.Migration.Migrated != 1 || rep.Migration.Failed != 0 {
		t.Fatalf("drain migration = %+v, want the posterior evacuated", rep.Migration)
	}
	if !holdsJob(t, survivor, st.ID) {
		t.Fatal("drain did not deliver the posterior to the survivor")
	}

	sweep := cl.rt.RepairNow(ctx)
	if sweep.Repaired != 0 || sweep.Failed != 0 {
		t.Fatalf("sweep after clean drain = %+v, want nothing to do", sweep)
	}
}

// TestKickRepairCoalesces: kicks arriving while one is already pending
// collapse into a single queued sweep.
func TestKickRepairCoalesces(t *testing.T) {
	cl := manualRepairCluster(t, 1)
	cl.rt.kickRepair()
	cl.rt.kickRepair()
	cl.rt.kickRepair()
	if got := len(cl.rt.repairKick); got != 1 {
		t.Fatalf("pending kicks = %d, want 1", got)
	}
}

// TestJitterIntervalBounds pins the sweep cadence spread to ±20%.
func TestJitterIntervalBounds(t *testing.T) {
	const d = time.Second
	for i := 0; i < 1000; i++ {
		j := jitterInterval(d)
		if j < 800*time.Millisecond || j > 1200*time.Millisecond {
			t.Fatalf("jitter(%v) = %v, out of [0.8d, 1.2d]", d, j)
		}
	}
	if jitterInterval(0) != 0 || jitterInterval(-time.Second) != -time.Second {
		t.Fatal("non-positive intervals must pass through unjittered")
	}
}

// scriptedShard is an httptest backend whose PUT /v1/posteriors/{id}
// responses follow a fixed script, for exercising transferCall's retry and
// terminal discipline without a real daemon.
func scriptedShard(t *testing.T, script func(attempt int64, w http.ResponseWriter)) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var puts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPut || !strings.HasPrefix(r.URL.Path, "/v1/posteriors/") {
			w.WriteHeader(http.StatusOK) // probes etc. stay green
			return
		}
		script(puts.Add(1), w)
	}))
	t.Cleanup(srv.Close)
	return srv, &puts
}

// scriptedRouter is a router whose only shard is the scripted server and
// whose background loops are inert, so transferCall is the only traffic.
func scriptedRouter(t *testing.T, base string) *Router {
	t.Helper()
	rt, err := New(Config{
		Shards:         []string{base},
		ProbeInterval:  time.Hour,
		RepairInterval: -1,
		Retry:          client.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func writeEnvelope(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(encode.ErrorEnvelope{Error: encode.ErrorBody{Code: code, Message: msg}}) //nolint:errcheck
}

// TestAdminDoRetriesTransientFailures: 5xx and 429 replay under the retry
// policy; the first 2xx wins.
func TestAdminDoRetriesTransientFailures(t *testing.T) {
	srv, puts := scriptedShard(t, func(attempt int64, w http.ResponseWriter) {
		if attempt < 3 {
			writeEnvelope(w, http.StatusInternalServerError, encode.CodeInternal, "transient")
			return
		}
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, `{"job":"x"}`) //nolint:errcheck
	})
	rt := scriptedRouter(t, srv.URL)
	var got struct{ Job string }
	if err := rt.transferCall(context.Background(), http.MethodPut, srv.URL+"/v1/posteriors/x", &got); err != nil {
		t.Fatalf("transferCall: %v", err)
	}
	if puts.Load() != 3 {
		t.Fatalf("attempts = %d, want 3 (two 500s, then success)", puts.Load())
	}
	if got.Job != "x" {
		t.Fatalf("decoded body %+v, want job x", got)
	}
}

// TestAdminDoHonorsRetryAfter: a 429's Retry-After floors the backoff —
// the retry must not arrive before the server asked it to.
func TestAdminDoHonorsRetryAfter(t *testing.T) {
	srv, puts := scriptedShard(t, func(attempt int64, w http.ResponseWriter) {
		if attempt == 1 {
			w.Header().Set("Retry-After", "1")
			writeEnvelope(w, http.StatusTooManyRequests, encode.CodeQueueFull, "busy")
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	rt := scriptedRouter(t, srv.URL)
	start := time.Now()
	if err := rt.transferCall(context.Background(), http.MethodPut, srv.URL+"/v1/posteriors/x", nil); err != nil {
		t.Fatalf("transferCall: %v", err)
	}
	if puts.Load() != 2 {
		t.Fatalf("attempts = %d, want 2", puts.Load())
	}
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Fatalf("retry arrived after %v; Retry-After: 1 must floor the backoff near 1s", elapsed)
	}
}

// TestAdminDoTerminalStatuses: 507 posterior_budget and plain 4xx fail on
// first sight — no retries against a request that cannot succeed.
func TestAdminDoTerminalStatuses(t *testing.T) {
	for _, tc := range []struct {
		name   string
		status int
		code   string
	}{
		{"posterior budget", http.StatusInsufficientStorage, encode.CodePosteriorBudget},
		{"bad request", http.StatusBadRequest, encode.CodeBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, puts := scriptedShard(t, func(attempt int64, w http.ResponseWriter) {
				writeEnvelope(w, tc.status, tc.code, "no")
			})
			rt := scriptedRouter(t, srv.URL)
			err := rt.transferCall(context.Background(), http.MethodPut, srv.URL+"/v1/posteriors/x", nil)
			var ae *client.APIError
			if !errors.As(err, &ae) || ae.Code != tc.code || ae.HTTPStatus != tc.status {
				t.Fatalf("transferCall error = %v, want APIError %s/%d", err, tc.code, tc.status)
			}
			if puts.Load() != 1 {
				t.Fatalf("attempts = %d, want exactly 1 for a terminal status", puts.Load())
			}
		})
	}
}

// TestAdminDoExhaustsRetries: a shard that never recovers costs exactly
// MaxAttempts requests and surfaces the last error.
func TestAdminDoExhaustsRetries(t *testing.T) {
	srv, puts := scriptedShard(t, func(attempt int64, w http.ResponseWriter) {
		writeEnvelope(w, http.StatusServiceUnavailable, encode.CodeInternal, "down")
	})
	rt := scriptedRouter(t, srv.URL)
	err := rt.transferCall(context.Background(), http.MethodPut, srv.URL+"/v1/posteriors/x", nil)
	if err == nil || !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("transferCall error = %v, want exhaustion after 3 attempts", err)
	}
	if puts.Load() != 3 {
		t.Fatalf("attempts = %d, want MaxAttempts", puts.Load())
	}
}

// TestAdminDoRejectsOversizeResponse: a response over the transfer limit
// is a loud terminal error, never a silently truncated document.
func TestAdminDoRejectsOversizeResponse(t *testing.T) {
	chunk := bytes.Repeat([]byte{' '}, 1<<20)
	srv, puts := scriptedShard(t, func(attempt int64, w http.ResponseWriter) {
		w.WriteHeader(http.StatusOK)
		for written := 0; written <= maxRequestBody; written += len(chunk) {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	})
	rt := scriptedRouter(t, srv.URL)
	var sink any
	err := rt.transferCall(context.Background(), http.MethodPut, srv.URL+"/v1/posteriors/x", &sink)
	if !errors.Is(err, errOversizeTransfer) {
		t.Fatalf("transferCall error = %v, want the oversize sentinel", err)
	}
	if puts.Load() != 1 {
		t.Fatalf("attempts = %d, want 1 — an oversize document must not be re-downloaded", puts.Load())
	}
}
