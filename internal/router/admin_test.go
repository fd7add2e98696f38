package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"phmse/internal/client"
	"phmse/internal/constraint"
	"phmse/internal/encode"
	"phmse/internal/faultinject"
	"phmse/internal/geom"
	"phmse/internal/molecule"
)

// keptParams is cheapParams plus posterior retention — the submissions
// the migration tests move around.
func keptParams() encode.SolveParams {
	p := cheapParams()
	p.KeepPosterior = true
	return p
}

// convergingParams runs a real solve (bounded, converging for the small
// anchored helices) so warm-vs-cold cycle counts are meaningful.
func convergingParams() encode.SolveParams {
	return encode.SolveParams{MaxCycles: 500, Perturb: 0.4, Seed: 17}
}

// shardIndex reads one backend daemon's posterior index directly.
func shardIndex(t *testing.T, b *backend, prefix string) encode.PosteriorIndex {
	t.Helper()
	u := b.url() + "/v1/posteriors"
	if prefix != "" {
		u += "?prefix=" + prefix
	}
	resp, err := http.Get(u)
	if err != nil {
		t.Fatalf("indexing %s: %v", b.name, err)
	}
	defer resp.Body.Close()
	var idx encode.PosteriorIndex
	if err := json.NewDecoder(resp.Body).Decode(&idx); err != nil {
		t.Fatalf("indexing %s: %v", b.name, err)
	}
	return idx
}

// expectOwner computes which base URL a ring over the given backends
// assigns to the problem's topology key — the test-side oracle for where
// a migration must have placed a posterior.
func expectOwner(cl *testCluster, p *molecule.Problem, backends ...*backend) string {
	var shards []*shard
	for _, b := range backends {
		shards = append(shards, &shard{name: b.url(), base: b.url()})
	}
	return buildRing(shards, ringVNodes).lookup(encode.TopologyHash(p)).name
}

func (cl *testCluster) resultCycles(t *testing.T, id string) int {
	t.Helper()
	doc, err := cl.c.Result(context.Background(), id)
	if err != nil {
		t.Fatalf("result of %s: %v", id, err)
	}
	return doc.Cycles
}

func TestAdminTopologyViewAndAuth(t *testing.T) {
	const token = "adm-secret"
	cl := newClusterWith(t, 2, token, nil)
	ctx := context.Background()

	// Tokenless and wrong-token calls are refused with the typed envelope.
	for _, bad := range []string{"", "wrong"} {
		_, err := client.NewAdmin(cl.rts.URL, bad).Shards(ctx)
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.HTTPStatus != http.StatusUnauthorized || ae.Code != encode.CodeUnauthorized {
			t.Fatalf("admin with token %q: err=%v, want 401/%s", bad, err, encode.CodeUnauthorized)
		}
	}

	admin := client.NewAdmin(cl.rts.URL, token)
	list, err := admin.Shards(ctx)
	if err != nil {
		t.Fatalf("shards: %v", err)
	}
	if len(list.Shards) != 2 || list.RingShards != 2 {
		t.Fatalf("topology view: %d shards, %d in ring; want 2/2", len(list.Shards), list.RingShards)
	}
	seen := map[string]bool{}
	for _, si := range list.Shards {
		if !si.InRing || !si.Ready || !si.Alive || si.DrainState != "" {
			t.Fatalf("shard %s not a healthy ring member: %+v", si.Base, si)
		}
		seen[si.Instance] = true
	}
	if !seen["s1"] || !seen["s2"] {
		t.Fatalf("instances %v, want s1 and s2", seen)
	}

	// Input validation on the mutating endpoints.
	badReqs := []struct {
		method, path, body string
		want               int
	}{
		{http.MethodPost, "/admin/v1/shards", `{"base":"not-a-url"}`, http.StatusBadRequest},
		{http.MethodPost, "/admin/v1/shards", `{`, http.StatusBadRequest},
		{http.MethodDelete, "/admin/v1/shards/nope", "", http.StatusNotFound},
		{http.MethodDelete, "/admin/v1/shards/s1?mode=sideways", "", http.StatusBadRequest},
		{http.MethodDelete, "/admin/v1/shards/s1?deadline_ms=-4", "", http.StatusBadRequest},
		{http.MethodPost, "/admin/v1/shards/nope/drain", "", http.StatusNotFound},
	}
	for _, br := range badReqs {
		req, _ := http.NewRequest(br.method, cl.rts.URL+br.path, bytes.NewReader([]byte(br.body)))
		req.Header.Set("Authorization", "Bearer "+token)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != br.want {
			t.Fatalf("%s %s: status %d, want %d", br.method, br.path, resp.StatusCode, br.want)
		}
	}

	// Adding an active member conflicts.
	_, err = admin.AddShard(ctx, cl.backends[0].url())
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.HTTPStatus != http.StatusConflict || ae.Code != encode.CodeConflict {
		t.Fatalf("duplicate add: err=%v, want 409/%s", err, encode.CodeConflict)
	}
}

// TestDrainRemoveMigratesPosteriors is the acceptance path: a drain-mode
// DELETE migrates every retained posterior whose key remaps, a warm start
// for a migrated topology is served from the new owner's reloaded store
// with strictly fewer cycles than the cold solve, and the removed shard
// rejoins via POST with no router restart.
func TestDrainRemoveMigratesPosteriors(t *testing.T) {
	const token = "rotate-me"
	cl := newClusterWith(t, 3, token, nil)
	ctx := context.Background()
	admin := client.NewAdmin(cl.rts.URL, token)

	p := helix(2)
	params := convergingParams()
	params.KeepPosterior = true
	st := cl.submit(t, p, params)
	cl.waitDone(t, st.ID)
	coldCycles := cl.resultCycles(t, st.ID)
	owner := cl.byInstance(t, st.ID)

	rep, err := admin.RemoveShard(ctx, owner.name, client.RemoveShardOptions{})
	if err != nil {
		t.Fatalf("remove %s: %v", owner.name, err)
	}
	if !rep.Removed || rep.Mode != "drain" || rep.TimedOut {
		t.Fatalf("drain removal report: %+v", rep)
	}
	if rep.Migration.Migrated < 1 || rep.Migration.Failed != 0 {
		t.Fatalf("migration report: %+v, want >=1 migrated, 0 failed", rep.Migration)
	}

	// The source store no longer holds the posterior (deleted post-ack)...
	if idx := shardIndex(t, owner, st.ID); len(idx.Posteriors) != 0 {
		t.Fatalf("source %s still indexes %s after migration", owner.name, st.ID)
	}
	// ...and exactly the ring-predicted survivor does.
	var rest []*backend
	for _, b := range cl.backends {
		if b != owner {
			rest = append(rest, b)
		}
	}
	want := expectOwner(cl, p, rest...)
	var holder *backend
	for _, b := range rest {
		if len(shardIndex(t, b, st.ID).Posteriors) == 1 {
			if holder != nil {
				t.Fatalf("posterior %s held by both %s and %s", st.ID, holder.name, b.name)
			}
			holder = b
		}
	}
	if holder == nil {
		t.Fatalf("no surviving shard holds %s", st.ID)
	}
	if holder.url() != want {
		t.Fatalf("posterior landed on %s, ring places its key on %s", holder.url(), want)
	}

	// Restart the holder: the warm start below must come out of its
	// *reloaded* store, proving the migrated posterior was persisted.
	holder.stop()
	holder.start(t)
	cl.waitRing(t, 2, 0)

	warm, err := cl.c.WarmStart(ctx, p, convergingParams(), st.ID)
	if err != nil {
		t.Fatalf("warm start after migration: %v", err)
	}
	if got := encode.JobInstance(warm.ID); got != holder.name {
		t.Fatalf("warm start routed to %q, migrated posterior lives on %q", got, holder.name)
	}
	if done := cl.waitDone(t, warm.ID); done.WarmStartFrom != st.ID {
		t.Fatalf("warm start from %q, want %q", done.WarmStartFrom, st.ID)
	}
	if warmCycles := cl.resultCycles(t, warm.ID); warmCycles >= coldCycles {
		t.Fatalf("warm solve took %d cycles, cold took %d; want strictly fewer", warmCycles, coldCycles)
	}

	// The ejected shard rejoins through the API alone — same router.
	resp, err := admin.AddShard(ctx, owner.url())
	if err != nil {
		t.Fatalf("re-adding %s: %v", owner.name, err)
	}
	if resp.Shard.Base != owner.url() {
		t.Fatalf("re-add response names %q, want %q", resp.Shard.Base, owner.url())
	}
	cl.waitRing(t, 3, 0)
	st2 := cl.submit(t, withExtraDistances(helix(9)), cheapParams())
	cl.waitDone(t, st2.ID)
}

// TestMigrationDestDownLeavesSourceIntact: a destination that dies
// mid-transfer must fail the migration *without* losing the source copy —
// no destination ack, no source delete — and a re-driven pass after
// recovery moves it.
func TestMigrationDestDownLeavesSourceIntact(t *testing.T) {
	// An hour-long probe interval freezes the router's health view: the
	// destination stays "ready" (and so keeps its ring arcs) even after we
	// kill it, which is exactly the crash window under test.
	cl := newClusterWith(t, 2, "", func(c *Config) {
		c.ProbeInterval = time.Hour
		c.ProbeTimeout = 500 * time.Millisecond
		// A stopped destination fails transfers with an instant dial
		// refusal, so the timeout never gates the crash window — keep it
		// generous for the recovery transfer under the race detector.
		c.MigrateTimeout = 10 * time.Second
	})
	ctx := context.Background()
	admin := client.NewAdmin(cl.rts.URL, "")

	p := helix(3)
	st := cl.submit(t, p, keptParams())
	cl.waitDone(t, st.ID)
	owner := cl.byInstance(t, st.ID)
	var dest *backend
	for _, b := range cl.backends {
		if b != owner {
			dest = b
		}
	}

	dest.stop() // crash the only possible destination

	rep, err := admin.RemoveShard(ctx, owner.name, client.RemoveShardOptions{Deadline: 2 * time.Second})
	if err != nil {
		t.Fatalf("remove with dead destination: %v", err)
	}
	if rep.Migration.Failed < 1 || rep.Migration.Migrated != 0 {
		t.Fatalf("migration with dead destination: %+v, want >=1 failed, 0 migrated", rep.Migration)
	}

	// The source daemon (still running — only membership changed) retains
	// the posterior in memory and on disk.
	if idx := shardIndex(t, owner, st.ID); len(idx.Posteriors) != 1 {
		t.Fatalf("source lost the posterior after a failed transfer: %d entries", len(idx.Posteriors))
	}
	files, err := os.ReadDir(owner.dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("source snapshot directory empty after a failed transfer")
	}

	// Recovery: destination restarts, source rejoins, and a re-driven
	// drain moves the posterior across.
	dest.start(t)
	cl.rt.CheckNow(ctx)
	if _, err := admin.AddShard(ctx, owner.url()); err != nil {
		t.Fatalf("re-adding source: %v", err)
	}
	rep2, err := admin.RemoveShard(ctx, owner.name, client.RemoveShardOptions{Deadline: 2 * time.Second})
	if err != nil {
		t.Fatalf("re-driven remove: %v", err)
	}
	if rep2.Migration.Migrated < 1 || rep2.Migration.Failed != 0 {
		t.Fatalf("re-driven migration: %+v, want >=1 migrated, 0 failed", rep2.Migration)
	}
	if idx := shardIndex(t, dest, st.ID); len(idx.Posteriors) != 1 {
		t.Fatalf("destination does not hold %s after recovery", st.ID)
	}
}

// TestDrainDeadlineExpiry: a shard pinned by a job that never finishes is
// still ejected when the drain deadline passes, with the expiry reported.
func TestDrainDeadlineExpiry(t *testing.T) {
	// Block every attempt of the tagged problem until released. The
	// release cleanup is registered after newCluster's, so (LIFO) the
	// worker is unblocked before the backends shut down.
	cl := newCluster(t, 3)
	var once sync.Once
	block := make(chan struct{})
	release := func() { once.Do(func() { close(block) }) }
	faultinject.Set(&faultinject.Hooks{BeforeAttempt: func(tag string, attempt int) {
		if tag == "drain-blocker" {
			<-block
		}
	}})
	t.Cleanup(func() { faultinject.Reset(); release() })

	p := helix(4)
	p = &molecule.Problem{Name: "drain-blocker", Atoms: p.Atoms, Constraints: p.Constraints, Tree: p.Tree}
	st := cl.submit(t, p, cheapParams())
	pinned := cl.byInstance(t, st.ID)

	// Wait until the job is actually running (occupying the worker).
	deadline := time.Now().Add(10 * time.Second)
	for {
		jst, err := cl.c.Status(context.Background(), st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if jst.State == encode.JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started running: %s", jst.State)
		}
		time.Sleep(10 * time.Millisecond)
	}

	admin := client.NewAdmin(cl.rts.URL, "")
	rep, err := admin.RemoveShard(context.Background(), pinned.name,
		client.RemoveShardOptions{Deadline: 300 * time.Millisecond})
	if err != nil {
		t.Fatalf("remove pinned shard: %v", err)
	}
	if !rep.TimedOut {
		t.Fatalf("drain of a pinned shard did not report expiry: %+v", rep)
	}
	if rep.InflightAtEnd < 1 {
		t.Fatalf("expiry report counts %d in-flight, want >= 1", rep.InflightAtEnd)
	}
	if !rep.Removed {
		t.Fatal("deadline expiry must still eject the shard")
	}
	if m := cl.rt.Snapshot(); m.RingShards != 2 {
		t.Fatalf("ring holds %d shards after ejection, want 2", m.RingShards)
	}
	release()
}

// TestDrainKeepsMembership: POST .../drain fences and migrates but leaves
// the member registered as "drained"; re-adding its base reactivates it.
func TestDrainKeepsMembership(t *testing.T) {
	cl := newCluster(t, 2)
	ctx := context.Background()
	admin := client.NewAdmin(cl.rts.URL, "")

	st := cl.submit(t, helix(5), keptParams())
	cl.waitDone(t, st.ID)
	owner := cl.byInstance(t, st.ID)

	rep, err := admin.DrainShard(ctx, owner.name, 2*time.Second)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if rep.Removed {
		t.Fatal("POST drain must not eject the member")
	}
	if rep.Shard.DrainState != "drained" {
		t.Fatalf("drain state %q, want drained", rep.Shard.DrainState)
	}
	if rep.Migration.Migrated < 1 || rep.Migration.Failed != 0 {
		t.Fatalf("drain migration: %+v", rep.Migration)
	}

	list, err := admin.Shards(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Shards) != 2 || list.RingShards != 1 {
		t.Fatalf("after drain: %d members, %d in ring; want 2/1", len(list.Shards), list.RingShards)
	}

	// Solves keep working on the remaining member.
	st2 := cl.submit(t, helix(6), cheapParams())
	if got := encode.JobInstance(st2.ID); got == owner.name {
		t.Fatalf("solve routed to drained shard %s", owner.name)
	}
	cl.waitDone(t, st2.ID)

	// Reactivation by re-adding the same base.
	resp, err := admin.AddShard(ctx, owner.url())
	if err != nil {
		t.Fatalf("reactivate: %v", err)
	}
	if !resp.Reactivated {
		t.Fatalf("adding a drained member's base must reactivate it: %+v", resp)
	}
	cl.waitRing(t, 2, 0)
}

// TestQueueDepthGauge: the router records each shard's probed queue
// occupancy and serves it as a per-shard gauge on /metrics and the admin
// view.
func TestQueueDepthGauge(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz", "/readyz":
			json.NewEncoder(w).Encode(encode.HealthStatus{ //nolint:errcheck
				Status: "ok", InstanceID: "busy", QueueDepth: 7, Running: 2,
			})
		default:
			http.NotFound(w, r)
		}
	}))
	defer stub.Close()

	rt, err := New(Config{Shards: []string{stub.URL}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.CheckNow(context.Background())

	m := rt.Snapshot()
	if len(m.Shards) != 1 || m.Shards[0].QueueDepth != 7 || m.Shards[0].Running != 2 {
		t.Fatalf("shard gauge: %+v, want queue_depth=7 running=2", m.Shards)
	}

	rts := httptest.NewServer(rt)
	defer rts.Close()
	list, err := client.NewAdmin(rts.URL, "").Shards(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Shards) != 1 || list.Shards[0].QueueDepth != 7 || list.Shards[0].Running != 2 {
		t.Fatalf("admin gauge: %+v, want queue_depth=7 running=2", list.Shards)
	}
}

// TestE2EGrowCluster grows a 2-shard cluster to 3 through the admin API
// alone and asserts a warm start for a migrated topology lands on the new
// member. The target topology is chosen up front with the same ring
// construction the router uses, so the assertion is deterministic.
func TestE2EGrowCluster(t *testing.T) {
	cl := newClusterWith(t, 2, "", nil)
	ctx := context.Background()
	admin := client.NewAdmin(cl.rts.URL, "")

	b3 := &backend{name: "s3", dir: t.TempDir()}
	b3.start(t)
	t.Cleanup(b3.stop)

	// Find a topology the grown ring will place on the new shard. The
	// topology hash covers the constraint graph, so adding one distance
	// measurement to a fixed small helix yields as many distinct (and
	// equally cheap to solve) candidate topologies as there are atom pairs.
	base := helix(2)
	var p *molecule.Problem
	n := len(base.Atoms)
search:
	for i := 0; i < n; i++ {
		for j := i + 2; j < n; j++ {
			cons := append([]constraint.Constraint(nil), base.Constraints...)
			d := geom.Dist(base.Atoms[i].Pos, base.Atoms[j].Pos)
			cons = append(cons, constraint.Distance{I: i, J: j, Target: d, Sigma: 0.5})
			cand := &molecule.Problem{Name: base.Name, Atoms: base.Atoms, Constraints: cons, Tree: base.Tree}
			if expectOwner(cl, cand, cl.backends[0], cl.backends[1], b3) == b3.url() {
				p = cand
				break search
			}
		}
	}
	if p == nil {
		t.Fatal("no candidate topology maps to the new shard; vnode placement broken")
	}

	params := convergingParams()
	params.KeepPosterior = true
	st := cl.submit(t, p, params)
	cl.waitDone(t, st.ID)
	coldCycles := cl.resultCycles(t, st.ID)

	resp, err := admin.AddShard(ctx, b3.url())
	if err != nil {
		t.Fatalf("growing cluster: %v", err)
	}
	if !resp.Shard.InRing {
		t.Fatalf("added shard not admitted to the ring: %+v", resp.Shard)
	}
	if resp.Migration.Migrated < 1 || resp.Migration.Failed != 0 {
		t.Fatalf("grow migration: %+v, want >=1 migrated, 0 failed", resp.Migration)
	}
	cl.waitRing(t, 3, 0)
	if len(shardIndex(t, b3, st.ID).Posteriors) != 1 {
		t.Fatalf("new shard does not hold the remapped posterior %s", st.ID)
	}

	warm, err := cl.c.WarmStart(ctx, p, convergingParams(), st.ID)
	if err != nil {
		t.Fatalf("warm start after growth: %v", err)
	}
	if got := encode.JobInstance(warm.ID); got != "s3" {
		t.Fatalf("warm start routed to %q, want the new shard s3", got)
	}
	// The minting shard is still a member, so the reference went there
	// first and was relocated on its miss.
	if got, want := cl.rt.Snapshot().WarmForwards, (MetricsWarmForwards{Direct: 1, Relocated: 1}); got != want {
		t.Fatalf("warm_forwards %+v, want %+v", got, want)
	}
	if done := cl.waitDone(t, warm.ID); done.WarmStartFrom != st.ID {
		t.Fatalf("warm start from %q, want %q", done.WarmStartFrom, st.ID)
	}
	if warmCycles := cl.resultCycles(t, warm.ID); warmCycles >= coldCycles {
		t.Fatalf("warm solve on grown cluster took %d cycles, cold took %d", warmCycles, coldCycles)
	}
}
