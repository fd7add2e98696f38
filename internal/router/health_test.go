package router

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"phmse/internal/cluster"
	"phmse/internal/encode"
)

// testClock is an injected Router.now that moves only when told to.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func newTestClock() *testClock { return &testClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)} }

func (c *testClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// newRouterAt builds a router whose health machines read clk, then starts
// its loops. The caller closes it.
func newRouterAt(t *testing.T, cfg Config, clk *testClock) *Router {
	t.Helper()
	rt, err := newRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.now = clk.now
	rt.run()
	return rt
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// newMachine builds an unstarted router over n shards whose health
// machines read clk and whose probes an in-process transport answers 200:
// every event comes from the test, and nothing touches the network.
func newMachine(t *testing.T, n int, clk *testClock, mut func(*Config)) (*Router, []*shard) {
	t.Helper()
	cfg := Config{
		ProbeInterval:  time.Second,
		RepairInterval: -1,
		GossipInterval: -1,
		HTTPClient: &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
			return faultResponse(req, http.StatusOK, "healthy"), nil
		})},
	}
	for i := 0; i < n; i++ {
		cfg.Shards = append(cfg.Shards, fmt.Sprintf("http://s%d.test", i+1))
	}
	if mut != nil {
		mut(&cfg)
	}
	rt, err := newRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.now = clk.now
	return rt, rt.shardList()
}

// healthOf copies a shard's health record.
func healthOf(sh *shard) health {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.health
}

// published reports whether the published ring gives sh any arcs.
func published(rt *Router, sh *shard) bool {
	for _, p := range rt.currentRing().points {
		if p.sh == sh {
			return true
		}
	}
	return false
}

// TestBreakerStateMachine drives one shard's breaker through its full
// cycle: closed → open at the failure threshold, refusals during the
// cooldown, exactly one half-open trial at a time, and the trial's
// outcome deciding between closed and another open period — with the
// published ring following the shard in and out at every step.
func TestBreakerStateMachine(t *testing.T) {
	clk := newTestClock()
	rt, shards := newMachine(t, 1, clk, nil)
	sh := shards[0]
	cooldown := breakerCooldown
	admit := func(wantOK, wantTrial bool, step string) {
		t.Helper()
		if ok, trial := rt.observe(sh, event{kind: evAdmit}); ok != wantOK || trial != wantTrial {
			t.Fatalf("%s: admit = (%v,%v), want (%v,%v)", step, ok, trial, wantOK, wantTrial)
		}
	}
	expect := func(want BreakerState, ring bool, step string) {
		t.Helper()
		if got := healthOf(sh).breaker; got != want || published(rt, sh) != ring {
			t.Fatalf("%s: breaker %v, in the published ring %v; want %v, %v", step, got, published(rt, sh), want, ring)
		}
	}
	fail := func(trial bool) { rt.observe(sh, event{kind: evForward, trial: trial}) }

	// Closed passes traffic; failures below the threshold keep it closed,
	// and a success resets the streak.
	for i := 0; i < 2; i++ {
		admit(true, false, "closed")
		fail(false)
	}
	rt.observe(sh, event{kind: evForward, ok: true})
	for i := 0; i < 2; i++ {
		fail(false)
	}
	expect(BreakerClosed, true, "two failures after a success")

	// The threshold-th consecutive failure opens, and the ring drops it.
	fail(false)
	expect(BreakerOpen, false, "threshold failures")
	clk.advance(cooldown / 2)
	admit(false, false, "inside the cooldown")
	fail(false) // a post-open straggler adds no transitions
	expect(BreakerOpen, false, "straggler")

	// Cooldown elapsed: the next request half-opens — the shard is back in
	// the published ring — and takes the single trial slot; a concurrent
	// request is refused until the trial settles.
	clk.advance(cooldown / 2)
	admit(true, true, "after the cooldown")
	expect(BreakerHalfOpen, true, "request-path half-open")
	admit(false, false, "while the trial is in flight")

	// A failed trial reopens; a cancel frees the slot for the next trial;
	// a successful trial closes.
	fail(true)
	expect(BreakerOpen, false, "failed trial")
	clk.advance(cooldown)
	admit(true, true, "second cooldown")
	rt.observe(sh, event{kind: evCancel})
	admit(true, true, "after a cancelled trial")
	rt.observe(sh, event{kind: evForward, ok: true, trial: true})
	expect(BreakerClosed, true, "successful trial")
	if h := healthOf(sh); h.opens != 2 || h.halfOpens != 2 || h.closes != 1 {
		t.Fatalf("transition counters = %d/%d/%d opens/halfOpens/closes, want 2/2/1", h.opens, h.halfOpens, h.closes)
	}
}

// TestBreakerTick pins the probe-driven open → half-open transition: a
// shard with no directed traffic still gets its trial once the cooldown
// elapses, exactly once.
func TestBreakerTick(t *testing.T) {
	clk := newTestClock()
	rt, shards := newMachine(t, 1, clk, nil)
	sh := shards[0]
	cooldown := breakerCooldown
	for i := 0; i < breakerFailures; i++ {
		rt.observe(sh, event{kind: evForward})
	}
	probe := func() { rt.observe(sh, event{kind: evProbe, alive: true, ready: true}) }
	clk.advance(cooldown / 2)
	probe()
	if h := healthOf(sh); h.breaker != BreakerOpen || published(rt, sh) {
		t.Fatalf("probe inside the cooldown: breaker %v, in ring %v; want open, out", h.breaker, published(rt, sh))
	}
	clk.advance(cooldown / 2)
	probe()
	clk.advance(cooldown)
	probe()
	if h := healthOf(sh); h.breaker != BreakerHalfOpen || h.halfOpens != 1 || !published(rt, sh) {
		t.Fatalf("probes after the cooldown: breaker %v after %d half-opens, in ring %v; want half-open once, in",
			h.breaker, h.halfOpens, published(rt, sh))
	}
}

// TestHalfOpenByRequestRejoinsRing: a breaker half-opened by a directed
// request, not by a probe, must put its shard back in the published ring —
// the successful trial changes nothing the view shows, so the half-open
// itself has to.
func TestHalfOpenByRequestRejoinsRing(t *testing.T) {
	var calls int
	var mu sync.Mutex
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/jobs/s1.job-000001" {
			mu.Lock()
			calls++
			wedged := calls <= breakerFailures
			mu.Unlock()
			if wedged {
				writeError(w, http.StatusInternalServerError, encode.CodeInternal, "wedged")
				return
			}
			writeJSON(w, http.StatusOK, encode.JobStatus{ID: "s1.job-000001", State: encode.JobDone})
			return
		}
		writeJSON(w, http.StatusOK, encode.HealthStatus{Status: "ok", InstanceID: "s1"})
	}))
	t.Cleanup(stub.Close)
	clk := newTestClock()
	rt := newRouterAt(t, Config{
		Shards:         []string{stub.URL},
		ProbeInterval:  time.Hour,
		RepairInterval: -1,
	}, clk)
	t.Cleanup(rt.Close)
	rts := httptest.NewServer(rt)
	t.Cleanup(rts.Close)
	ctx := context.Background()
	rt.CheckNow(ctx)
	status := func() int {
		t.Helper()
		resp, err := http.Get(rts.URL + "/v1/jobs/s1.job-000001")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// Each poll relays the 500 once its retries are spent, until
	// breakerFailures consecutive failures open the breaker.
	for polls := 0; len(rt.currentRing().points) != 0; polls++ {
		if polls == breakerFailures {
			t.Fatalf("breaker open at threshold %d, but the shard is still in the ring", breakerFailures)
		}
		if code := status(); code != http.StatusInternalServerError {
			t.Fatalf("status poll %d: %d, want the relayed 500", polls+1, code)
		}
	}
	clk.advance(breakerCooldown)
	if code := status(); code != http.StatusOK {
		t.Fatalf("trial status poll: %d, want 200", code)
	}
	rt.CheckNow(ctx)
	sh := rt.shardList()[0]
	if !sh.state().inRing() || rt.Snapshot().RingShards != 1 || !published(rt, sh) {
		t.Fatalf("after the trial: state in ring %v, metrics ring_shards %d, published ring has it %v; want all in",
			sh.state().inRing(), rt.Snapshot().RingShards, published(rt, sh))
	}
}

// TestHealthEventsConcurrent: the prober's and every forward's events
// arrive from many goroutines at once, each republishing the view when its
// shard's membership changes. Once they stop, the published ring must
// equal the serving set — whichever rebuild ran last saw every transition
// (run under -race).
func TestHealthEventsConcurrent(t *testing.T) {
	clk := newTestClock()
	rt, shards := newMachine(t, 4, clk, nil)
	var wg sync.WaitGroup
	for g := int64(1); g <= 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(g))
			for i := 0; i < 300; i++ {
				sh := shards[rng.Intn(len(shards))]
				switch rng.Intn(5) {
				case 0:
					rt.observe(sh, event{kind: evProbe, alive: rng.Intn(4) > 0, ready: rng.Intn(3) > 0})
				case 1:
					rt.observe(sh, event{kind: evEject})
				case 2:
					clk.advance(time.Duration(rng.Int63n(int64(breakerCooldown))))
				default:
					if ok, trial := rt.observe(sh, event{kind: evAdmit}); ok {
						rt.observe(sh, event{kind: evForward, ok: rng.Intn(2) == 0, trial: trial})
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, sh := range shards {
		if h := healthOf(sh); published(rt, sh) != sh.state().inRing() || h.trial {
			t.Errorf("%s: published ring has it %v, state %s, trial slot taken %v", sh.name, published(rt, sh), sh.state(), h.trial)
		}
	}
}

// replaySeed, when non-zero, makes TestHealthSchedules run only that seed.
const replaySeed = 0

// TestHealthSchedules drives the health machines with seeded random event
// sequences — probe verdicts, live forwards and their outcomes, replays,
// trial cancels, ejects, clock advances, and drain-fence syncs from the
// membership document — and checks the invariants after
// every event. A failure names its seed; set replaySeed to rerun it alone.
func TestHealthSchedules(t *testing.T) {
	seeds := []int64{replaySeed}
	if replaySeed == 0 {
		seeds = seeds[:0]
		for s := int64(1); s <= 40; s++ {
			seeds = append(seeds, s)
		}
	}
	for _, seed := range seeds {
		runHealthSchedule(t, seed, 400)
	}
}

func runHealthSchedule(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	clk := newTestClock()
	rt, shards := newMachine(t, 3, clk, nil)
	ctx := context.Background()
	doc := rt.cnode.Current() // the membership document the syncs deliver
	maxWait := max(maxProbeBackoff, rt.cfg.ProbeInterval)
	type forward struct {
		sh    *shard
		trial bool
	}
	var inflight []forward
	prev := map[*shard]health{}
	for _, sh := range shards {
		prev[sh] = healthOf(sh)
	}
	for step := 0; step < steps; step++ {
		sh := shards[rng.Intn(len(shards))]
		var what string
		probed, bad := false, false
		switch rng.Intn(10) {
		case 0:
			what, probed = "probe ready", true
			rt.observe(sh, event{kind: evProbe, alive: true, ready: true})
		case 1:
			what, probed, bad = "probe unready", true, true
			rt.observe(sh, event{kind: evProbe, alive: true})
		case 2:
			what, probed, bad = "probe dead", true, true
			rt.observe(sh, event{kind: evProbe})
		case 3:
			what = "admit"
			if ok, trial := rt.observe(sh, event{kind: evAdmit}); ok {
				inflight = append(inflight, forward{sh, trial})
			}
		case 4:
			if len(inflight) == 0 {
				what = "nothing to settle"
				break
			}
			i := rng.Intn(len(inflight))
			f := inflight[i]
			inflight = append(inflight[:i], inflight[i+1:]...)
			sh = f.sh
			switch rng.Intn(4) {
			case 0:
				what = "forward ok"
				rt.observe(sh, event{kind: evForward, ok: true, trial: f.trial})
			case 1:
				what = "forward 5xx"
				rt.observe(sh, event{kind: evForward, trial: f.trial})
			case 2:
				what = "forward transport error"
				rt.observe(sh, event{kind: evForward, trial: f.trial})
				rt.observe(sh, event{kind: evEject})
			default:
				what = "forward never sent"
				if f.trial {
					rt.observe(sh, event{kind: evCancel})
				}
			}
		case 5:
			what = "replay" // a retry the breaker already admitted
			rt.observe(sh, event{kind: evForward, ok: rng.Intn(2) == 0})
		case 6, 7:
			d := time.Duration(rng.Int63n(int64(8 * time.Second)))
			what = fmt.Sprintf("clock +%v", d)
			clk.advance(d)
		default:
			m := cluster.FindMember(&doc, sh.name)
			if m.DrainState == "" {
				m.DrainState = "draining"
			} else {
				m.DrainState = "" // reactivated: reconciliation probes it
				probed = true
			}
			what = "drain fence " + m.DrainState
			rt.reconcileMembership(ctx, doc, false)
		}

		failf := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d step %d (%s on %s): "+format, append([]any{seed, step, what, sh.name}, args...)...)
		}
		for _, s := range shards {
			h, st := healthOf(s), s.state()
			if published(rt, s) != st.inRing() {
				failf("%s: published ring has it %v, state %s", s.name, published(rt, s), st)
			}
			trials := 0
			for _, f := range inflight {
				if f.sh == s && f.trial {
					trials++
				}
			}
			if trials > 1 || h.trial != (trials == 1) {
				failf("%s: %d trials outstanding, trial slot taken %v", s.name, trials, h.trial)
			}
			if wait := h.nextProbe.Sub(clk.now()); wait > maxWait {
				failf("%s: next probe in %v, past the %v cap", s.name, wait, maxWait)
			}
			p := prev[s]
			if h.probationLeft > p.probationLeft && !(s == sh && (bad || probed && h.quarantines > p.quarantines)) {
				failf("%s: probation %d → %d with neither a new quarantine nor a bad probe", s.name, p.probationLeft, h.probationLeft)
			}
			if h.opens < p.opens || h.halfOpens < p.halfOpens || h.closes < p.closes || h.quarantines < p.quarantines {
				failf("%s: counters went back: %d/%d/%d/%d → %d/%d/%d/%d opens/halfOpens/closes/quarantines", s.name,
					p.opens, p.halfOpens, p.closes, p.quarantines, h.opens, h.halfOpens, h.closes, h.quarantines)
			}
			prev[s] = h
		}
	}
}

// shardMetricsOf finds one shard's metrics row by base URL.
func shardMetricsOf(t *testing.T, rt *Router, base string) ShardMetrics {
	t.Helper()
	for _, sm := range rt.Snapshot().Shards {
		if sm.Base == base {
			return sm
		}
	}
	t.Fatalf("no shard %q in metrics", base)
	return ShardMetrics{}
}

// TestFlapSuppressionQuarantine bounces one shard in and out of the ring
// until flap suppression quarantines it, then verifies the escalating
// probation: readmission now takes consecutive good probes, a bad probe
// mid-probation resets the requirement, and a repeat offence doubles it.
func TestFlapSuppressionQuarantine(t *testing.T) {
	cl := newClusterWith(t, 2, "", func(cfg *Config) {
		cfg.ProbeInterval = time.Hour // probes only via CheckNow; no forwards reach the breaker
		cfg.RepairInterval = -1
	})
	ctx := context.Background()
	b := cl.backends[1]

	bounce := func() {
		t.Helper()
		b.stop()
		cl.rt.CheckNow(ctx) // observe it down
		b.start(t)
	}

	// Shards start optimistic (in the ring), so the startup probe is not a
	// readmission: the first flapCount bounces readmit immediately on one
	// good probe each — the stable-shard behaviour.
	for i := 0; i < flapCount; i++ {
		bounce()
		cl.rt.CheckNow(ctx)
		if sm := shardMetricsOf(t, cl.rt, b.url()); !sm.Ready || sm.Quarantines != 0 {
			t.Fatalf("clean bounce %d: ready=%v quarantines=%d, want immediate readmission",
				i+1, sm.Ready, sm.Quarantines)
		}
	}

	// The next bounce finds flapCount readmissions inside the window:
	// quarantine, probation of 2 consecutive good probes.
	bounce()
	cl.rt.CheckNow(ctx)
	sm := shardMetricsOf(t, cl.rt, b.url())
	if sm.Ready || sm.Quarantines != 1 || sm.ProbationLeft != 2 {
		t.Fatalf("flapping bounce: ready=%v quarantines=%d probation=%d, want quarantined with probation 2",
			sm.Ready, sm.Quarantines, sm.ProbationLeft)
	}

	// Two more good probes serve the probation and readmit.
	cl.rt.CheckNow(ctx)
	if sm := shardMetricsOf(t, cl.rt, b.url()); sm.Ready || sm.ProbationLeft != 1 {
		t.Fatalf("mid-probation: ready=%v probation=%d, want out with probation 1", sm.Ready, sm.ProbationLeft)
	}
	cl.rt.CheckNow(ctx)
	if sm := shardMetricsOf(t, cl.rt, b.url()); !sm.Ready || sm.ProbationLeft != 0 {
		t.Fatalf("after probation: ready=%v probation=%d, want readmitted", sm.Ready, sm.ProbationLeft)
	}
	cl.waitRing(t, 2, 0)

	// A repeat offence doubles the probation (quarantine #2 → 4 probes),
	// and a bad probe mid-probation resets the full requirement.
	bounce()
	cl.rt.CheckNow(ctx)
	sm = shardMetricsOf(t, cl.rt, b.url())
	if sm.Ready || sm.Quarantines != 2 || sm.ProbationLeft != 4 {
		t.Fatalf("repeat offence: ready=%v quarantines=%d probation=%d, want probation 4",
			sm.Ready, sm.Quarantines, sm.ProbationLeft)
	}
	cl.rt.CheckNow(ctx)
	cl.rt.CheckNow(ctx)
	if sm := shardMetricsOf(t, cl.rt, b.url()); sm.ProbationLeft != 2 {
		t.Fatalf("probation after 2 good probes = %d, want 2", sm.ProbationLeft)
	}
	b.stop()
	cl.rt.CheckNow(ctx) // bad probe: probation resets to the full 4
	b.start(t)
	cl.rt.CheckNow(ctx)
	if sm := shardMetricsOf(t, cl.rt, b.url()); sm.ProbationLeft != 3 {
		t.Fatalf("probation after reset + 1 good probe = %d, want 3 (reset to 4, then one served)", sm.ProbationLeft)
	}
	for i := 0; i < 3; i++ {
		cl.rt.CheckNow(ctx)
	}
	if sm := shardMetricsOf(t, cl.rt, b.url()); !sm.Ready {
		t.Fatal("shard never readmitted after serving the reset probation")
	}
}
