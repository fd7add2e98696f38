package router

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"phmse/internal/encode"
)

// TestShardStateTable pins the one shard-state function: every
// combination of document fence, prober verdict, flap probation and
// breaker position maps to one state, and the three predicates read only
// that state.
func TestShardStateTable(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		removed              bool
		drain                string
		alive, ready         bool
		probation            int
		breaker              BreakerState
		want                 shardState
		ring, place, askable bool
	}{
		{name: "healthy", alive: true, ready: true, want: stateServing, ring: true, place: true, askable: true},
		{name: "half-open breaker stays in the ring", alive: true, ready: true, breaker: BreakerHalfOpen, want: stateServing, ring: true, place: true, askable: true},
		{name: "readyz refusing", alive: true, want: stateUnready, place: true, askable: true},
		{name: "serving flap probation", alive: true, probation: 3, want: stateUnready, place: true, askable: true},
		{name: "probation owed beats ready", alive: true, ready: true, probation: 1, want: stateUnready, place: true, askable: true},
		{name: "breaker open", alive: true, ready: true, breaker: BreakerOpen, want: stateOpen, place: true, askable: true},
		{name: "breaker open and unready", alive: true, breaker: BreakerOpen, want: stateOpen, place: true, askable: true},
		{name: "draining", drain: "draining", alive: true, ready: true, want: stateFenced, askable: true},
		{name: "drained", drain: "drained", alive: true, ready: true, want: stateFenced, askable: true},
		{name: "fenced with breaker open", drain: "drained", alive: true, ready: true, breaker: BreakerOpen, want: stateFenced, askable: true},
		{name: "down", want: stateDown},
		{name: "down while fenced", drain: "draining", want: stateDown},
		{name: "down with breaker open", breaker: BreakerOpen, want: stateDown},
		{name: "removed though healthy", removed: true, alive: true, ready: true, want: stateRemoved},
		{name: "removed while draining", removed: true, drain: "draining", alive: true, want: stateRemoved},
	} {
		sh := &shard{removed: tc.removed, drain: tc.drain, health: health{alive: tc.alive, ready: tc.ready, probationLeft: tc.probation, breaker: tc.breaker}}
		got := sh.state()
		if got != tc.want {
			t.Errorf("%s: state = %d, want %d", tc.name, got, tc.want)
		}
		if got.inRing() != tc.ring || got.placeable() != tc.place || got.askable() != tc.askable {
			t.Errorf("%s: inRing/placeable/askable = %v/%v/%v, want %v/%v/%v", tc.name,
				got.inRing(), got.placeable(), got.askable(), tc.ring, tc.place, tc.askable)
		}
	}
}

// TestRingViewsAgree: a shard whose probes stay green while its v1 plane
// fails trips its breaker and leaves the ring — and every view of the
// ring must say so. Before the shard-state function, /readyz and the
// admin topology view ignored the breaker and kept reporting it in.
func TestRingViewsAgree(t *testing.T) {
	shardSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" || r.URL.Path == "/readyz" {
			json.NewEncoder(w).Encode(encode.HealthStatus{Status: "ok", InstanceID: "s1"}) //nolint:errcheck
			return
		}
		http.Error(w, "wedged", http.StatusInternalServerError)
	}))
	t.Cleanup(shardSrv.Close)
	// The test clock never moves, so the open breaker's cooldown never
	// elapses.
	rt := newRouterAt(t, Config{
		Shards:         []string{shardSrv.URL},
		ProbeInterval:  time.Hour,
		RepairInterval: -1,
	}, newTestClock())
	t.Cleanup(rt.Close)
	rts := httptest.NewServer(rt)
	t.Cleanup(rts.Close)
	ctx := context.Background()
	rt.CheckNow(ctx)

	getJSON := func(path string, out any) int {
		t.Helper()
		resp, err := http.Get(rts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatalf("GET %s: decoding: %v", path, err)
			}
		}
		return resp.StatusCode
	}
	views := func(want int) {
		t.Helper()
		var health, ready RouterHealth
		var list encode.ShardList
		var m Metrics
		getJSON("/healthz", &health)
		readyStatus := getJSON("/readyz", &ready)
		getJSON("/admin/v1/shards", &list)
		getJSON("/metrics", &m)
		inRing := 0
		for _, si := range list.Shards {
			if si.InRing {
				inRing++
			}
		}
		if health.ReadyShards != want || ready.ReadyShards != want || list.RingShards != want || inRing != want || m.RingShards != want {
			t.Fatalf("ring views disagree: healthz %d, readyz %d, admin ring_shards %d (in_ring rows %d), metrics %d; want all %d",
				health.ReadyShards, ready.ReadyShards, list.RingShards, inRing, m.RingShards, want)
		}
		if got := len(rt.currentRing().points); (got > 0) != (want > 0) {
			t.Fatalf("ring holds %d points with %d shards reported in it", got, want)
		}
		wantStatus, wantBody := http.StatusOK, "ok"
		if want == 0 {
			wantStatus, wantBody = http.StatusServiceUnavailable, "no_shard"
		}
		if readyStatus != wantStatus || ready.Status != wantBody {
			t.Fatalf("readyz = %d %q with %d shards in the ring, want %d %q", readyStatus, ready.Status, want, wantStatus, wantBody)
		}
	}

	views(1)
	// breakerFailures live 500s (broadcast lookups: one attempt each,
	// relayed verbatim) open the breaker; probes stay green.
	for i := 0; i < breakerFailures; i++ {
		if code := getJSON("/v1/jobs/job-000001", nil); code != http.StatusInternalServerError {
			t.Fatalf("forward to the wedged shard: http %d, want the relayed 500", code)
		}
	}
	rt.CheckNow(ctx)
	views(0)
}

// stubIndexShard is a fake phmsed that is healthy, idle and holds no
// posteriors: enough for membership operations to run end to end.
func stubIndexShard(t *testing.T) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz", "/readyz":
			json.NewEncoder(w).Encode(encode.HealthStatus{Status: "ok"}) //nolint:errcheck
		case "/v1/posteriors":
			json.NewEncoder(w).Encode(encode.PosteriorIndex{}) //nolint:errcheck
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

// TestJoinerInRingWhenReconcileReturns: the background prober can admit a
// joining member between reconciliation's rebuild and reconciliation's own
// probe, and publish the new ring only afterwards; reconciliation's probe
// then sees no transition. The ring the add's placement pass diffs against
// must have the joiner all the same — the add otherwise moves nothing.
func TestJoinerInRingWhenReconcileReturns(t *testing.T) {
	a, b := stubIndexShard(t), stubIndexShard(t)
	var rt *Router
	var c *httptest.Server
	c = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			// The other prober's admission, up to but not including its
			// rebuild.
			sh := rt.findShard(c.URL)
			sh.mu.Lock()
			sh.alive, sh.ready = true, true
			sh.mu.Unlock()
		}
		json.NewEncoder(w).Encode(encode.HealthStatus{Status: "ok"}) //nolint:errcheck
	}))
	t.Cleanup(c.Close)
	rt, err := New(Config{Shards: []string{a, b}, ProbeInterval: time.Hour, RepairInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	if _, err := rt.addShard(context.Background(), c.URL); err != nil {
		t.Fatal(err)
	}
	for _, p := range rt.currentRing().encodePoints() {
		if p.Owner == c.URL {
			return
		}
	}
	t.Fatal("add returned with the joiner admitted but absent from the published ring")
}

// TestMembershipFollowsDocument is the single-writer invariant: after
// every membership step — whole admin operations and bare document steps
// alike — the published shard set equals the document's member list, fence
// for fence, while probes and forwards republish the view concurrently
// (run under -race).
func TestMembershipFollowsDocument(t *testing.T) {
	a, b, c := stubIndexShard(t), stubIndexShard(t), stubIndexShard(t)
	rt, err := New(Config{
		Shards:         []string{a, b},
		ProbeInterval:  time.Hour,
		RepairInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	rts := httptest.NewServer(rt)
	t.Cleanup(rts.Close)
	ctx := context.Background()

	// Background churn on the view: forced probe sweeps and broadcast
	// forwards, both of which rebuild and read it.
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(2)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
				rt.CheckNow(ctx)
			}
		}
	}()
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if resp, err := http.Get(rts.URL + "/v1/jobs/nobody.job-000001"); err == nil {
					resp.Body.Close()
				}
			}
		}
	}()
	t.Cleanup(func() { close(stop); churn.Wait() })

	check := func(step string) {
		t.Helper()
		var want, got []string
		for _, m := range rt.cnode.Current().Members {
			want = append(want, m.Base+"|"+m.DrainState)
		}
		for _, sh := range rt.shardList() {
			sh.mu.Lock()
			got = append(got, sh.base+"|"+sh.drain)
			if sh.removed {
				t.Errorf("after %s: member %s is latched removed", step, sh.base)
			}
			sh.mu.Unlock()
		}
		sort.Strings(want)
		sort.Strings(got)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("after %s: shard set %v, document members %v", step, got, want)
		}
	}

	check("boot")
	if _, err := rt.addShard(ctx, c); err != nil {
		t.Fatalf("add: %v", err)
	}
	check("add")
	joined := rt.findShard(c)
	rt.retire(ctx, joined, false, "drain", time.Second)
	check("drain")
	if resp, err := rt.addShard(ctx, c); err != nil || !resp.Reactivated {
		t.Fatalf("reactivate = %+v, %v", resp, err)
	}
	check("reactivate")
	rt.retire(ctx, joined, true, "drain", time.Second)
	check("remove")
	if got := joined.state(); got != stateRemoved {
		t.Fatalf("removed shard reads state %d, want removed", got)
	}
	rt.retire(ctx, rt.findShard(b), true, "immediate", 0)
	check("immediate remove")

	// Bare document steps, as a gossip adoption would deliver them.
	rt.adminMu.Lock()
	rt.step(ctx, func(doc *encode.ClusterDoc) bool {
		doc.Members = append(doc.Members, encode.ClusterMember{Base: b, DrainState: "drained"})
		return true
	})
	rt.adminMu.Unlock()
	check("document gained a drained member")
	rt.CheckNow(ctx) // a member that joins fenced is not probed on entry
	if got := rt.findShard(b).state(); got != stateFenced {
		t.Fatalf("member added drained reads state %d, want fenced", got)
	}
	if n := len(rt.shardsIn(shardState.inRing)); n != 1 {
		t.Fatalf("%d shards in the ring, want only %s", n, a)
	}
}

// TestDrainingDaemonStaysAskable: a daemon draining itself answers
// /healthz and /readyz with 503 {"status":"draining"} while it finishes its
// jobs. That is unready, not down: out of the ring, but still listed and
// asked. A 503 that is not the daemon's own word — a proxy's error page —
// and a daemon that stops answering are down.
func TestDrainingDaemonStaysAskable(t *testing.T) {
	var mode atomic.Value // "ok" | "draining" | "proxy"
	mode.Store("ok")
	stub := func(instance string, health func(w http.ResponseWriter)) *httptest.Server {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch r.URL.Path {
			case "/healthz", "/readyz":
				health(w)
			case "/v1/jobs":
				json.NewEncoder(w).Encode(encode.JobList{Jobs: []encode.JobStatus{ //nolint:errcheck
					{ID: instance + ".job-000001", State: encode.JobRunning},
				}})
			default:
				http.NotFound(w, r)
			}
		}))
		t.Cleanup(srv.Close)
		return srv
	}
	ok := func(id string) func(http.ResponseWriter) {
		return func(w http.ResponseWriter) {
			json.NewEncoder(w).Encode(encode.HealthStatus{Status: "ok", InstanceID: id}) //nolint:errcheck
		}
	}
	steady := stub("s1", ok("s1"))
	leaving := stub("s2", func(w http.ResponseWriter) {
		switch mode.Load() {
		case "draining":
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(encode.HealthStatus{Status: "draining", InstanceID: "s2"}) //nolint:errcheck
		case "proxy":
			writeError(w, http.StatusServiceUnavailable, "upstream_unavailable", "no backend")
		default:
			ok("s2")(w)
		}
	})
	rt, err := New(Config{
		Shards:         []string{steady.URL, leaving.URL},
		ProbeInterval:  time.Hour,
		RepairInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	rts := httptest.NewServer(rt)
	t.Cleanup(rts.Close)
	ctx := context.Background()

	var sh *shard
	for _, s := range rt.shardList() {
		if s.base == leaving.URL {
			sh = s
		}
	}
	check := func(step string, want shardState, listed bool) {
		t.Helper()
		rt.CheckNow(ctx)
		if got := sh.state(); got != want {
			t.Fatalf("%s: state = %d, want %d", step, got, want)
		}
		for _, in := range rt.shardsIn(shardState.inRing) {
			if in == sh && want != stateServing {
				t.Fatalf("%s: still in the ring", step)
			}
		}
		resp, err := http.Get(rts.URL + "/v1/jobs")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var list encode.JobList
		if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
			t.Fatalf("%s: listing: %v", step, err)
		}
		found := false
		for _, j := range list.Jobs {
			found = found || j.ID == "s2.job-000001"
		}
		if found != listed {
			t.Fatalf("%s: listing has the shard's job = %v, want %v (%+v)", step, found, listed, list.Jobs)
		}
	}
	check("healthy", stateServing, true)
	mode.Store("draining")
	check("draining", stateUnready, true)
	sh.mu.Lock()
	fails := sh.consecFails
	sh.mu.Unlock()
	if fails != 0 {
		t.Fatalf("draining: %d failed probes counted, want the normal cadence, not a failure backoff", fails)
	}
	mode.Store("proxy")
	check("a proxy's 503", stateDown, false)
	mode.Store("draining")
	check("draining again", stateUnready, true)
	leaving.Close()
	check("stopped answering", stateDown, false)
}
