package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"phmse/internal/client"
	"phmse/internal/constraint"
	"phmse/internal/encode"
	"phmse/internal/geom"
	"phmse/internal/molecule"
	"phmse/internal/server"
)

// helix returns a small anchored helix problem that converges quickly
// under default solver parameters.
func helix(bp int) *molecule.Problem {
	return molecule.WithAnchors(molecule.Helix(bp), 4, 0.05)
}

// withExtraDistances returns a problem over the same molecule with extra
// long-range distance measurements — same structure hash (warm-start
// compatible), different topology hash (different ring key).
func withExtraDistances(p *molecule.Problem) *molecule.Problem {
	n := len(p.Atoms)
	var cons constraint.Set
	cons.Append(&p.Constraints)
	for _, pr := range [][2]int{{0, n - 1}, {1, n - 2}, {n / 4, 3 * n / 4}} {
		d := geom.Dist(p.Atoms[pr[0]].Pos, p.Atoms[pr[1]].Pos)
		cons.Add(constraint.Distance{I: pr[0], J: pr[1], Target: d, Sigma: 0.1}.Row())
	}
	return &molecule.Problem{Name: p.Name + "+extra", Atoms: p.Atoms, Constraints: cons, Tree: p.Tree}
}

// cheapParams caps the solve at two constraint cycles: a capped solve
// still completes as done (and retains its posterior when asked), and the
// routing tier does not care whether the estimate converged.
func cheapParams() encode.SolveParams {
	return encode.SolveParams{MaxCycles: 2, Perturb: 0.4, Seed: 17}
}

// backend is one phmsed instance under the router, restartable on a
// stable address so shard-restart scenarios can be exercised.
type backend struct {
	name  string
	dir   string
	addr  string
	token string // server-side AdminToken gating posterior imports
	srv   *server.Server
	ts    *httptest.Server
	up    bool
}

func (b *backend) start(t *testing.T) {
	t.Helper()
	addr := b.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	b.addr = l.Addr().String()
	b.srv = server.New(server.Config{
		MaxProcs:       2,
		QueueDepth:     256,
		PosteriorBytes: 64 << 20,
		InstanceID:     b.name,
		PosteriorDir:   b.dir,
		AdminToken:     b.token,
	})
	b.ts = &httptest.Server{Listener: l, Config: &http.Server{Handler: b.srv}}
	b.ts.Start()
	b.up = true
}

func (b *backend) stop() {
	if !b.up {
		return
	}
	b.up = false
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	b.srv.Shutdown(ctx) //nolint:errcheck
	b.ts.Close()
}

func (b *backend) url() string { return "http://" + b.addr }

// cluster is a router over n live backends plus a typed client bound to
// the router — the same client the daemon's own tests use, pointed one
// tier up.
type testCluster struct {
	rt       *Router
	rts      *httptest.Server
	c        *client.Client
	backends []*backend
}

func newCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	return newClusterWith(t, n, "", nil)
}

// newClusterWith starts a cluster whose backends and router share the
// given admin token and whose router config may be adjusted before New.
func newClusterWith(t *testing.T, n int, token string, mut func(*Config)) *testCluster {
	t.Helper()
	cl := &testCluster{}
	var bases []string
	for i := 0; i < n; i++ {
		b := &backend{name: fmt.Sprintf("s%d", i+1), dir: t.TempDir(), token: token}
		b.start(t)
		cl.backends = append(cl.backends, b)
		bases = append(bases, b.url())
	}
	cfg := Config{
		Shards:        bases,
		ProbeInterval: 50 * time.Millisecond,
		AdminToken:    token,
	}
	if mut != nil {
		mut(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl.rt = rt
	cl.rts = httptest.NewServer(rt)
	cl.c = client.New(cl.rts.URL)
	rt.CheckNow(context.Background()) // learn instance ids before the first submit
	t.Cleanup(func() {
		cl.rts.Close()
		rt.Close()
		for _, b := range cl.backends {
			b.stop()
		}
	})
	return cl
}

// waitRing re-probes until the ring settles at the wanted shape — a CPU
// starved machine can time out a probe of a healthy shard, so a single
// forced sweep is not decisive.
func (cl *testCluster) waitRing(t *testing.T, ready, unhealthy int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		cl.rt.CheckNow(context.Background())
		m := cl.rt.Snapshot()
		if m.RingShards == ready && m.UnhealthyShards == unhealthy {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("ring never settled: ring=%d unhealthy=%d, want %d/%d",
				m.RingShards, m.UnhealthyShards, ready, unhealthy)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// byInstance finds the backend whose instance id minted the given job id.
func (cl *testCluster) byInstance(t *testing.T, id string) *backend {
	t.Helper()
	instance := encode.JobInstance(id)
	for _, b := range cl.backends {
		if b.name == instance {
			return b
		}
	}
	t.Fatalf("job id %q names no cluster backend", id)
	return nil
}

func (cl *testCluster) submit(t *testing.T, p *molecule.Problem, params encode.SolveParams) encode.JobStatus {
	t.Helper()
	st, err := cl.c.Submit(context.Background(), p, params)
	if err != nil {
		t.Fatalf("submit via router: %v", err)
	}
	if encode.JobInstance(st.ID) == "" {
		t.Fatalf("job id %q carries no instance qualifier", st.ID)
	}
	return st
}

func (cl *testCluster) waitDone(t *testing.T, id string) encode.JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	st, err := cl.c.Wait(ctx, id, 10*time.Millisecond, encode.JobDone)
	if err != nil {
		t.Fatalf("waiting for %s: %v", id, err)
	}
	return st
}

// TestRoutingStability: identical topologies must land on the same shard
// every time (plan-cache and posterior locality), while distinct
// topologies spread across the cluster.
func TestRoutingStability(t *testing.T) {
	cl := newCluster(t, 3)
	p := helix(6)
	want := encode.JobInstance(cl.submit(t, p, cheapParams()).ID)
	for i := 0; i < 99; i++ {
		st := cl.submit(t, p, cheapParams())
		if got := encode.JobInstance(st.ID); got != want {
			t.Fatalf("submit %d of identical topology routed to %q, earlier ones to %q", i+2, got, want)
		}
	}
	seen := map[string]bool{}
	for bp := 4; bp <= 16; bp++ {
		seen[encode.JobInstance(cl.submit(t, helix(bp), cheapParams()).ID)] = true
	}
	if len(seen) < 2 {
		t.Errorf("13 distinct topologies all routed to one shard %v; want spread", seen)
	}
}

// TestShardDeathFailover: killing a shard must not fail the next submit —
// the router ejects it on the dial failure and fails over to the next
// ring replica.
func TestShardDeathFailover(t *testing.T) {
	cl := newCluster(t, 3)
	p := helix(7)
	first := cl.submit(t, p, cheapParams())
	owner := encode.JobInstance(first.ID)
	cl.byInstance(t, first.ID).stop()

	st := cl.submit(t, p, cheapParams())
	if got := encode.JobInstance(st.ID); got == owner {
		t.Fatalf("submit after shard death still routed to dead shard %q", owner)
	}
	cl.waitDone(t, st.ID)
	cl.waitRing(t, 2, 1)
}

// TestWarmStartLocality: a warm-started submission must reach the shard
// retaining the referenced posterior even when its own topology would ring
// elsewhere.
func TestWarmStartLocality(t *testing.T) {
	cl := newCluster(t, 3)
	p := helix(8)
	params := cheapParams()
	params.KeepPosterior = true
	st := cl.submit(t, p, params)
	cl.waitDone(t, st.ID)
	owner := encode.JobInstance(st.ID)

	st2, err := cl.c.WarmStart(context.Background(), withExtraDistances(p), cheapParams(), st.ID)
	if err != nil {
		t.Fatalf("warm start via router: %v", err)
	}
	if got := encode.JobInstance(st2.ID); got != owner {
		t.Fatalf("warm start routed to %q, posterior lives on %q", got, owner)
	}
	if done := cl.waitDone(t, st2.ID); done.WarmStartFrom != st.ID {
		t.Fatalf("warm start from %q, want %q", done.WarmStartFrom, st.ID)
	}
}

// TestCrossShardListingPagination: GET /v1/jobs through the router pages
// over the union of all shards' jobs with no duplicates and no gaps.
func TestCrossShardListingPagination(t *testing.T) {
	cl := newCluster(t, 3)
	want := map[string]bool{}
	for bp := 4; bp <= 12; bp++ {
		want[cl.submit(t, helix(bp), cheapParams()).ID] = true
	}

	ctx := context.Background()
	got := map[string]bool{}
	after := ""
	for pages := 0; ; pages++ {
		if pages > 20 {
			t.Fatal("pagination did not terminate")
		}
		list, err := cl.c.List(ctx, client.ListOptions{Limit: 2, After: after})
		if err != nil {
			t.Fatalf("list page %d: %v", pages, err)
		}
		if len(list.Jobs) > 2 {
			t.Fatalf("page %d has %d jobs, limit 2", pages, len(list.Jobs))
		}
		for _, st := range list.Jobs {
			if got[st.ID] {
				t.Fatalf("job %s delivered twice", st.ID)
			}
			got[st.ID] = true
		}
		if list.NextAfter == "" {
			break
		}
		after = list.NextAfter
	}
	if len(got) != len(want) {
		t.Fatalf("paged %d jobs, submitted %d", len(got), len(want))
	}
	for id := range want {
		if !got[id] {
			t.Fatalf("submitted job %s never listed", id)
		}
	}

	// A backend's own cursor is meaningless at the router.
	if _, err := cl.c.List(ctx, client.ListOptions{After: "job-000001"}); err == nil {
		t.Fatal("bare backend cursor accepted by router listing")
	}
}

// TestListingShardErrorKeepsCursor: a live shard that fails to answer the
// list fan-out must not terminate pagination even when the merged page
// comes up short — the routed page still carries a composite cursor, with
// the errored shard's position untouched, so re-paging picks its jobs up
// once it recovers instead of silently dropping them.
func TestListingShardErrorKeepsCursor(t *testing.T) {
	// A status request for a shard's job parks in the shard until released,
	// occupying one of its in-flight slots.
	held, release := make(chan struct{}), make(chan struct{})
	mkShard := func(instance string, jobs []encode.JobStatus, healthy *atomic.Bool) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch r.URL.Path {
			case "/healthz", "/readyz":
				json.NewEncoder(w).Encode(encode.HealthStatus{Status: "ok", InstanceID: instance}) //nolint:errcheck
			case "/v1/jobs/" + instance + ".job-000001":
				held <- struct{}{}
				<-release
				json.NewEncoder(w).Encode(jobs[0]) //nolint:errcheck
			case "/v1/jobs":
				if healthy != nil && !healthy.Load() {
					http.Error(w, "boom", http.StatusInternalServerError)
					return
				}
				after := r.URL.Query().Get("after")
				out := encode.JobList{Jobs: []encode.JobStatus{}}
				for _, st := range jobs {
					if after == "" || st.ID > after {
						out.Jobs = append(out.Jobs, st)
					}
				}
				json.NewEncoder(w).Encode(out) //nolint:errcheck
			default:
				http.NotFound(w, r)
			}
		}))
	}
	var flakyUp atomic.Bool
	a := mkShard("a", []encode.JobStatus{
		{ID: "a.job-000001", State: encode.JobDone, SubmittedAt: "2026-08-07T00:00:01Z"},
	}, nil)
	defer a.Close()
	b := mkShard("b", []encode.JobStatus{
		{ID: "b.job-000001", State: encode.JobDone, SubmittedAt: "2026-08-07T00:00:02Z"},
	}, &flakyUp)
	defer b.Close()

	// A probe interval long enough that the fan-out, not the prober,
	// decides what this test observes.
	rt, err := New(Config{Shards: []string{a.URL, b.URL}, ProbeInterval: time.Hour, ShardInflight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rts := httptest.NewServer(rt)
	defer rts.Close()
	c := client.New(rts.URL)
	ctx := context.Background()
	rt.CheckNow(ctx) // learn the instance ids, so job requests are directed

	list, err := c.List(ctx, client.ListOptions{Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != "a.job-000001" {
		t.Fatalf("page with one shard erroring: %+v, want only a.job-000001", list.Jobs)
	}
	if list.NextAfter == "" {
		t.Fatal("short page with an errored shard terminated pagination; its jobs would be silently dropped")
	}

	// The shard recovers; re-paging with the same cursor surfaces its jobs.
	flakyUp.Store(true)
	list2, err := c.List(ctx, client.ListOptions{Limit: 10, After: list.NextAfter})
	if err != nil {
		t.Fatal(err)
	}
	if len(list2.Jobs) != 1 || list2.Jobs[0].ID != "b.job-000001" {
		t.Fatalf("re-page after recovery: %+v, want only b.job-000001", list2.Jobs)
	}
	if list2.NextAfter != "" {
		t.Fatalf("fully-answered final page still carries cursor %q", list2.NextAfter)
	}

	// The fan-out goes through the shared forward attempt: a shard whose
	// only in-flight slot is taken is not sent the listing — it reads as an
	// errored page, cursor kept — instead of bypassing the cap.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := c.Status(ctx, "b.job-000001"); err != nil {
			t.Errorf("held status request: %v", err)
		}
	}()
	<-held
	list3, err := c.List(ctx, client.ListOptions{Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(list3.Jobs) != 1 || list3.Jobs[0].ID != "a.job-000001" || list3.NextAfter == "" {
		t.Fatalf("page with b saturated: %+v next %q, want only a.job-000001 and a cursor", list3.Jobs, list3.NextAfter)
	}
	if sm := shardMetricsOf(t, rt, b.URL); sm.Rejected != 1 || sm.Inflight != 1 {
		t.Fatalf("saturated shard b: rejected %d inflight %d, want the listing turned away at the cap (1/1)", sm.Rejected, sm.Inflight)
	}
	close(release)
	<-done
}

// TestAllShardsDown503: with every shard gone the router answers the
// structured no_shard envelope rather than hanging or garbling.
func TestAllShardsDown503(t *testing.T) {
	cl := newCluster(t, 2)
	st := cl.submit(t, helix(5), cheapParams())
	cl.waitDone(t, st.ID)
	for _, b := range cl.backends {
		b.stop()
	}
	cl.waitRing(t, 0, 2)

	var body bytes.Buffer
	if err := encode.WriteProblem(&body, helix(5)); err != nil {
		t.Fatal(err)
	}
	req, _ := json.Marshal(encode.SolveRequest{Problem: body.Bytes()})

	checks := []struct {
		method, path string
		body         []byte
	}{
		{http.MethodPost, "/v1/solve", req},
		{http.MethodGet, "/v1/jobs", nil},
		{http.MethodGet, "/v1/jobs/" + st.ID, nil},
	}
	for _, c := range checks {
		hreq, err := http.NewRequest(c.method, cl.rts.URL+c.path, bytes.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatalf("%s %s: %v", c.method, c.path, err)
		}
		var env encode.ErrorEnvelope
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s %s: decoding envelope: %v", c.method, c.path, err)
		}
		if resp.StatusCode != http.StatusServiceUnavailable || env.Error.Code != encode.CodeNoShard {
			t.Fatalf("%s %s: got %d/%q, want 503/%q", c.method, c.path, resp.StatusCode, env.Error.Code, encode.CodeNoShard)
		}
	}

	resp, err := http.Get(cl.rts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rh RouterHealth
	err = json.NewDecoder(resp.Body).Decode(&rh)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || rh.Status != "no_shard" || rh.ReadyShards != 0 {
		t.Fatalf("readyz with all shards down: %d %+v", resp.StatusCode, rh)
	}
}

// TestPosteriorSurvivesRestart: restarting a shard (same address, same
// -instance, same -posterior-dir) must serve a warm start from the
// posterior reloaded off disk.
func TestPosteriorSurvivesRestart(t *testing.T) {
	cl := newCluster(t, 3)
	p := helix(8)
	// A cold job first so the kept posterior's id is not the shard's first
	// — the restarted daemon reuses low ids for new work.
	cl.submit(t, p, cheapParams())
	params := cheapParams()
	params.KeepPosterior = true
	st := cl.submit(t, p, params)
	cl.waitDone(t, st.ID)

	b := cl.byInstance(t, st.ID)
	b.stop()
	b.start(t) // same addr, instance, posterior dir
	cl.waitRing(t, 3, 0)

	var m server.Metrics
	resp, err := http.Get(b.url() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if m.Posteriors.Loaded < 1 {
		t.Fatalf("restarted shard loaded %d posterior snapshots, want >= 1", m.Posteriors.Loaded)
	}

	st2, err := cl.c.WarmStart(context.Background(), withExtraDistances(p), cheapParams(), st.ID)
	if err != nil {
		t.Fatalf("warm start after shard restart: %v", err)
	}
	if got := encode.JobInstance(st2.ID); got != b.name {
		t.Fatalf("post-restart warm start routed to %q, want %q", got, b.name)
	}
	if done := cl.waitDone(t, st2.ID); done.WarmStartFrom != st.ID {
		t.Fatalf("post-restart warm start from %q, want %q", done.WarmStartFrom, st.ID)
	}
}
