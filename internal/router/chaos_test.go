package router

// The chaos suite: a real 3-shard cluster behind fault-injecting proxies
// (internal/chaosproxy), driven through scripted fault windows to prove
// the self-healing properties end to end — circuit breakers observed in
// all three states, zero posterior loss through shard death and a
// reset/5xx storm, and anti-entropy repair converging every posterior
// back onto its ring owner within two sweeps.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"phmse/internal/chaosproxy"
	"phmse/internal/client"
	"phmse/internal/encode"
	"phmse/internal/molecule"
)

// v1Only scopes injected faults to the v1 data plane, keeping health
// probes clean: the chaos scenarios target live-traffic failures the
// probe loop cannot see — exactly what the circuit breaker exists for.
func v1Only(r *http.Request) bool { return strings.HasPrefix(r.URL.Path, "/v1/") }

// chaosCluster is a router over n live backends, each behind its own
// chaosproxy. Probes and repair sweeps run only on demand (CheckNow /
// RepairNow) so every scenario step is deterministic.
type chaosCluster struct {
	rt       *Router
	rts      *httptest.Server
	c        *client.Client
	backends []*backend
	proxies  []*chaosproxy.Proxy
	// proxyURL[i] is also the router-side shard name of backends[i].
	proxyURL []string
}

func newChaosCluster(t *testing.T, n int, mut func(*Config)) *chaosCluster {
	t.Helper()
	cc := &chaosCluster{}
	var bases []string
	for i := 0; i < n; i++ {
		b := &backend{name: fmt.Sprintf("s%d", i+1), dir: t.TempDir()}
		b.start(t)
		p := chaosproxy.New(b.url(), int64(i+1))
		ps := httptest.NewServer(p)
		t.Cleanup(func() { ps.Close(); p.Close() })
		cc.backends = append(cc.backends, b)
		cc.proxies = append(cc.proxies, p)
		cc.proxyURL = append(cc.proxyURL, ps.URL)
		bases = append(bases, ps.URL)
	}
	cfg := Config{
		Shards:          bases,
		ProbeInterval:   time.Hour, // probes only via CheckNow
		ProbeTimeout:    2 * time.Second,
		BreakerFailures: 2,
		BreakerCooldown: 100 * time.Millisecond,
		FlapCount:       -1, // scenarios bounce shards deliberately
		RepairInterval:  -1, // sweeps only via RepairNow
		Retry:           client.RetryPolicy{MaxAttempts: 3, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond},
		// A backstop against true hangs only: big posterior transfers
		// (export + re-decode + store) legitimately take seconds, so the
		// timeout must sit well above any honest request.
		HTTPClient: &http.Client{Timeout: 60 * time.Second},
	}
	if mut != nil {
		mut(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cc.rt = rt
	cc.rts = httptest.NewServer(rt)
	cc.c = client.New(cc.rts.URL)
	rt.CheckNow(context.Background())
	t.Cleanup(func() {
		cc.rts.Close()
		rt.Close()
		for _, b := range cc.backends {
			b.stop()
		}
	})
	return cc
}

// breakerStateOf reads one shard's breaker position from /metrics.
func (cc *chaosCluster) breakerStateOf(t *testing.T, i int) string {
	t.Helper()
	return shardMetricsOf(t, cc.rt, cc.proxyURL[i]).BreakerState
}

// backendIdxOf maps a router-side shard (named by proxy URL) back to its
// backend index.
func (cc *chaosCluster) backendIdxOf(t *testing.T, sh *shard) int {
	t.Helper()
	for i, u := range cc.proxyURL {
		if u == sh.name {
			return i
		}
	}
	t.Fatalf("shard %q is not one of this cluster's proxies", sh.name)
	return -1
}

// instanceIdx maps a job id's instance qualifier to its backend index.
func (cc *chaosCluster) instanceIdx(t *testing.T, jobID string) int {
	t.Helper()
	instance := encode.JobInstance(jobID)
	for i, b := range cc.backends {
		if b.name == instance {
			return i
		}
	}
	t.Fatalf("job id %q names no cluster backend", jobID)
	return -1
}

// submitRetry submits through the router, riding out injected faults.
func (cc *chaosCluster) submitRetry(t *testing.T, p *molecule.Problem, params encode.SolveParams) encode.JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := cc.c.Submit(context.Background(), p, params)
		if err == nil {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("submit never succeeded through the fault window: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// waitDoneRetry polls a job to done, riding out injected faults.
func (cc *chaosCluster) waitDoneRetry(t *testing.T, id string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if _, err := cc.c.WaitRetry(ctx, id, 20*time.Millisecond, encode.JobDone); err != nil {
		t.Fatalf("waiting for %s: %v", id, err)
	}
}

// waitQuiet waits until no backend holds queued or running work, asking
// each daemon directly (past the proxies) so faults cannot blind the
// check. Orphaned jobs — accepted by a shard whose response was then cut —
// must finish and retain their posteriors before a sweep's holdings
// snapshot can be meaningfully asserted against.
func (cc *chaosCluster) waitQuiet(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		quiet := true
		for _, b := range cc.backends {
			if !b.up {
				continue
			}
			var hs encode.HealthStatus
			resp, err := http.Get(b.url() + "/readyz")
			if err != nil {
				quiet = false
				break
			}
			json.NewDecoder(resp.Body).Decode(&hs) //nolint:errcheck
			resp.Body.Close()
			if hs.QueueDepth+hs.Running > 0 {
				quiet = false
				break
			}
		}
		if quiet {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("cluster never quiesced")
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// holdings asks every live backend directly for its posterior index and
// returns job → holder backend indexes and job → topology hash.
func (cc *chaosCluster) holdings(t *testing.T) (held map[string][]int, topo map[string]string) {
	t.Helper()
	held = map[string][]int{}
	topo = map[string]string{}
	for i, b := range cc.backends {
		if !b.up {
			continue
		}
		resp, err := http.Get(b.url() + "/v1/posteriors")
		if err != nil {
			t.Fatalf("indexing backend %s: %v", b.name, err)
		}
		var idx encode.PosteriorIndex
		if err := json.NewDecoder(resp.Body).Decode(&idx); err != nil {
			t.Fatalf("decoding %s index: %v", b.name, err)
		}
		resp.Body.Close()
		for _, info := range idx.Posteriors {
			held[info.Job] = append(held[info.Job], i)
			topo[info.Job] = info.TopologyHash
		}
	}
	return held, topo
}

// TestBreakerOpensOnLiveFailures drives the breaker through the full
// closed → open → half-open → closed cycle with live traffic against a
// shard that answers probes but fails its v1 requests — the failure shape
// probes alone cannot see.
func TestBreakerOpensOnLiveFailures(t *testing.T) {
	// A long-enough cooldown that the in-cooldown assertions (refusal,
	// failover) cannot race a premature half-open trial.
	cc := newChaosCluster(t, 2, func(cfg *Config) { cfg.BreakerCooldown = 500 * time.Millisecond })
	ctx := context.Background()
	p := helix(6)
	params := cheapParams()

	first, err := cc.c.Submit(ctx, p, params)
	if err != nil {
		t.Fatalf("baseline submit: %v", err)
	}
	owner := cc.instanceIdx(t, first.ID)
	if got := cc.breakerStateOf(t, owner); got != "closed" {
		t.Fatalf("baseline breaker state = %q, want closed", got)
	}

	// The owner's v1 plane starts failing; probes stay green. Repeated
	// submissions of the owned topology are relayed 500s until the breaker
	// opens at the threshold (2) and the shard leaves the ring.
	cc.proxies[owner].Set(chaosproxy.Fault{ErrorProb: 1, Match: v1Only})
	var relayErrs int
	for i := 0; i < 10 && cc.breakerStateOf(t, owner) != "open"; i++ {
		if _, err := cc.c.Submit(ctx, p, params); err != nil {
			relayErrs++
		}
	}
	if got := cc.breakerStateOf(t, owner); got != "open" {
		t.Fatalf("breaker state after failure storm = %q, want open", got)
	}
	if relayErrs == 0 {
		t.Fatal("no failed submissions recorded before the breaker opened")
	}
	if m := cc.rt.Snapshot(); m.RingShards != 1 {
		t.Fatalf("ring shards with one breaker open = %d, want 1", m.RingShards)
	}

	// A request directed at the broken shard (job lookup by instance) is
	// refused with an honest retry signal, not a false 404.
	_, err = cc.c.Status(ctx, first.ID)
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.HTTPStatus != http.StatusServiceUnavailable {
		t.Fatalf("directed request to open shard: %v, want 503", err)
	}
	if cc.rt.Snapshot().BreakerRefused == 0 {
		t.Fatal("breaker refusals not counted")
	}

	// New submissions of the same key fail over to the surviving replica.
	st := cc.submitRetry(t, p, params)
	if got := cc.instanceIdx(t, st.ID); got == owner {
		t.Fatalf("submission routed to the broken shard %d", owner)
	}

	// Recovery: faults clear, the cooldown elapses, and a probe sweep
	// half-opens the breaker (the shard re-enters the ring for its trial).
	cc.proxies[owner].Clear()
	time.Sleep(600 * time.Millisecond) // > BreakerCooldown
	cc.rt.CheckNow(ctx)
	if got := cc.breakerStateOf(t, owner); got != "half_open" {
		t.Fatalf("breaker state after cooldown = %q, want half_open", got)
	}

	// The trial request succeeds and closes the breaker.
	st = cc.submitRetry(t, p, params)
	if got := cc.instanceIdx(t, st.ID); got != owner {
		t.Fatalf("trial submission routed to %d, want recovered owner %d", got, owner)
	}
	if got := cc.breakerStateOf(t, owner); got != "closed" {
		t.Fatalf("breaker state after trial success = %q, want closed", got)
	}
	sm := shardMetricsOf(t, cc.rt, cc.proxyURL[owner])
	if sm.BreakerOpens < 1 || sm.BreakerHalfOpens < 1 || sm.BreakerCloses < 1 {
		t.Fatalf("transition counters = %+v, want every transition recorded", sm)
	}
}

// TestMigrationFailureKicksRepair pins the hand-off between the two
// self-healing halves: a migration pass that leaves posteriors behind
// must schedule an immediate anti-entropy sweep (and the posterior stays
// fail-safe on its source meanwhile).
func TestMigrationFailureKicksRepair(t *testing.T) {
	cc := newChaosCluster(t, 2, nil)
	params := cheapParams()
	params.KeepPosterior = true
	st := cc.submitRetry(t, helix(6), params)
	cc.waitDoneRetry(t, st.ID)
	owner := cc.instanceIdx(t, st.ID)
	other := 1 - owner

	// Every transfer import into the destination fails; the drain's
	// migration pass retries each PUT under the transfer policy, then
	// counts the posterior failed.
	cc.proxies[other].Set(chaosproxy.Fault{
		ErrorProb: 1,
		Match:     func(r *http.Request) bool { return r.Method == http.MethodPut && v1Only(r) },
	})
	rep := cc.rt.retire(context.Background(), cc.rt.findShard(cc.proxyURL[owner]), false, "drain", time.Second)
	if rep.Migration.Failed == 0 {
		t.Fatalf("drain migration = %+v, want failures against the faulted destination", rep.Migration)
	}
	if len(cc.rt.repairKick) != 1 {
		t.Fatal("failed migration pass did not kick the repair loop")
	}
	if errs := cc.proxies[other].Stats().Errors; errs < int64(cc.rt.cfg.Retry.MaxAttempts) {
		t.Fatalf("destination saw %d injected errors, want >= %d (the PUT must retry)", errs, cc.rt.cfg.Retry.MaxAttempts)
	}

	// Fail-safe: the posterior never left the drained source.
	held, _ := cc.holdings(t)
	if holders := held[st.ID]; len(holders) != 1 || holders[0] != owner {
		t.Fatalf("posterior holders after failed migration = %v, want intact on source %d", holders, owner)
	}
}

// TestChaosSelfHealing is the acceptance scenario: a 3-shard cluster
// behind chaos proxies loses a shard mid-life, serves a scripted fault
// window (30%% of v1 requests reset or 5xx'd), restarts the shard, and
// must converge — every posterior on exactly its ring owner within two
// repair sweeps, none lost, the dead shard's breaker observed in all
// three states along the way.
func TestChaosSelfHealing(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos scenario is long")
	}
	cc := newChaosCluster(t, 3, nil)
	ctx := context.Background()
	params := cheapParams()
	params.KeepPosterior = true

	// Phase 1: a baseline population of retained posteriors. Molecule
	// sizes stay small: a posterior's footprint is O(atoms²) — full
	// covariance — and the scenario needs every document to fit both the
	// per-shard store budget and the transfer protocol's body limit, so
	// that any failure the assertions see is an injected one.
	var jobs []string
	for bp := 2; bp <= 9; bp++ {
		st := cc.submitRetry(t, helix(bp), params)
		cc.waitDoneRetry(t, st.ID)
		jobs = append(jobs, st.ID)
	}

	// Phase 2: kill one shard — the owner of the first baseline job. Its
	// posteriors survive on disk; the proxy stays up, so the dead backend
	// reads as 502s, a live-traffic failure probes cannot express.
	p0 := helix(2)
	victim := cc.instanceIdx(t, jobs[0])
	cc.backends[victim].stop()

	// Phase 3: submissions keyed to the dead shard open its breaker, then
	// fail over; the cluster keeps accepting work.
	for i := 0; i < 10 && cc.breakerStateOf(t, victim) != "open"; i++ {
		cc.c.Submit(ctx, p0, params) //nolint:errcheck
	}
	if got := cc.breakerStateOf(t, victim); got != "open" {
		t.Fatalf("victim breaker = %q after failure storm, want open", got)
	}
	st := cc.submitRetry(t, p0, params)
	cc.waitDoneRetry(t, st.ID)
	jobs = append(jobs, st.ID)

	// Phase 4: the fault window — 30% of v1 traffic to the survivors is
	// reset mid-body or answered 5xx while work keeps flowing.
	for i, p := range cc.proxies {
		if i != victim {
			p.Set(chaosproxy.Fault{ResetProb: 0.15, ErrorProb: 0.15, Match: v1Only})
		}
	}
	for bp := 2; bp <= 6; bp++ {
		st := cc.submitRetry(t, withExtraDistances(helix(bp)), params)
		cc.waitDoneRetry(t, st.ID)
		jobs = append(jobs, st.ID)
	}

	// Phase 5: the dead shard restarts on its old address with its old
	// store. One probe sweep readmits it; the elapsed cooldown half-opens
	// its breaker, and the trial submission closes it.
	cc.backends[victim].start(t)
	time.Sleep(150 * time.Millisecond) // > BreakerCooldown
	cc.rt.CheckNow(ctx)
	if got := cc.breakerStateOf(t, victim); got != "half_open" {
		t.Fatalf("victim breaker after restart = %q, want half_open", got)
	}
	st = cc.submitRetry(t, p0, params)
	cc.waitDoneRetry(t, st.ID)
	jobs = append(jobs, st.ID)
	if got := cc.breakerStateOf(t, victim); got != "closed" {
		t.Fatalf("victim breaker after trial = %q, want closed", got)
	}

	// Phase 6: repair sweep #1 runs while the survivors still inject
	// faults — transfers may die mid-body, and every failure must be
	// fail-safe. The window then closes and sweep #2 must converge.
	cc.waitQuiet(t)
	rep1 := cc.rt.RepairNow(ctx)
	t.Logf("sweep 1 (faulted): %+v", rep1)
	for _, p := range cc.proxies {
		p.Clear()
	}
	rep2 := cc.rt.RepairNow(ctx)
	t.Logf("sweep 2 (clean): %+v", rep2)
	if rep2.Failed > 0 {
		t.Fatalf("clean sweep still failing: %+v", rep2)
	}

	// The fault window was real: the survivors injected resets or errors.
	var injected int64
	for i, p := range cc.proxies {
		if i != victim {
			st := p.Stats()
			injected += st.Resets + st.Errors
		}
	}
	if injected == 0 {
		t.Fatal("fault window injected nothing; the scenario proved nothing")
	}

	// Convergence: every posterior — the recorded jobs and any orphans
	// minted when a reset cut a submit response — is held by exactly one
	// shard, and that shard is its ring owner. Zero loss: every recorded
	// job's posterior survived the whole scenario.
	held, topo := cc.holdings(t)
	ring := cc.rt.currentRing()
	for job, holders := range held {
		if len(holders) != 1 {
			t.Errorf("job %s held by %d shards %v, want exactly 1", job, len(holders), holders)
			continue
		}
		ownerSh := ring.lookup(topo[job])
		if ownerSh == nil {
			t.Errorf("job %s has no ring owner", job)
			continue
		}
		if want := cc.backendIdxOf(t, ownerSh); holders[0] != want {
			t.Errorf("job %s held by backend %d, ring owner is %d", job, holders[0], want)
		}
	}
	for _, id := range jobs {
		if _, ok := held[id]; !ok {
			t.Errorf("posterior of %s lost", id)
		}
	}
	if t.Failed() {
		t.Logf("repair metrics: %+v", cc.rt.Snapshot().Repair)
	}
}
