package router

// Two-replica control-plane tests: a pair of Routers over one shared
// backend set, gossiping membership documents at each other. Gossip and
// repair loops run in manual mode (negative intervals) so every round is
// an explicit, deterministic GossipNow/RepairNow call.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"phmse/internal/client"
	"phmse/internal/cluster"
	"phmse/internal/encode"
)

// twoRouters is a pair of router replicas ("ra", "rb") peered with each
// other over real listeners, sharing one backend set and admin token.
type twoRouters struct {
	a, b     *Router
	sa, sb   *httptest.Server
	aa, ab   *client.Admin
	backends []*backend
}

const twoRouterToken = "cluster-tok"

// newTwoRouters starts n backends and two peered routers over them. The
// peer URLs must be known before router.New, so listeners are bound
// first and the httptest servers attached to them after construction.
func newTwoRouters(t *testing.T, n int) *twoRouters {
	t.Helper()
	tr := &twoRouters{}
	var bases []string
	for i := 0; i < n; i++ {
		b := &backend{name: fmt.Sprintf("s%d", i+1), dir: t.TempDir(), token: twoRouterToken}
		b.start(t)
		tr.backends = append(tr.backends, b)
		bases = append(bases, b.url())
	}
	la, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lb, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	urlA, urlB := "http://"+la.Addr().String(), "http://"+lb.Addr().String()
	mk := func(id, peer string) *Router {
		cfg := Config{
			Shards:         bases,
			ProbeInterval:  50 * time.Millisecond,
			AdminToken:     twoRouterToken,
			RepairInterval: -1,
			GossipInterval: -1, // every round is an explicit GossipNow
			ReplicaID:      id,
			Peers:          []string{peer},
		}
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
	tr.a, tr.b = mk("ra", urlB), mk("rb", urlA)
	tr.sa = &httptest.Server{Listener: la, Config: &http.Server{Handler: tr.a}}
	tr.sb = &httptest.Server{Listener: lb, Config: &http.Server{Handler: tr.b}}
	tr.sa.Start()
	tr.sb.Start()
	tr.aa = client.NewAdmin(tr.sa.URL, twoRouterToken)
	tr.ab = client.NewAdmin(tr.sb.URL, twoRouterToken)
	tr.a.CheckNow(context.Background())
	tr.b.CheckNow(context.Background())
	t.Cleanup(func() {
		tr.sa.Close()
		tr.sb.Close()
		tr.a.Close()
		tr.b.Close()
		for _, b := range tr.backends {
			b.stop()
		}
	})
	return tr
}

// addBackend starts one more phmsed and registers it via the given
// replica's admin API.
func (tr *twoRouters) addBackend(t *testing.T, name string, adm *client.Admin) *backend {
	t.Helper()
	b := &backend{name: name, dir: t.TempDir(), token: twoRouterToken}
	b.start(t)
	t.Cleanup(b.stop)
	tr.backends = append(tr.backends, b)
	if _, err := adm.AddShard(context.Background(), b.url()); err != nil {
		t.Fatalf("add %s: %v", name, err)
	}
	return b
}

func findAudit(entries []encode.AuditEntry, op, origin string) *encode.AuditEntry {
	for i := range entries {
		if entries[i].Op == op && entries[i].Origin == origin {
			return &entries[i]
		}
	}
	return nil
}

// TestTwoRouterAddConverges: an /admin/v1 mutation at either replica
// reflects in both rings within one gossip round, and the peer records
// the applied document's origin in its audit trail.
func TestTwoRouterAddConverges(t *testing.T) {
	tr := newTwoRouters(t, 2)
	ctx := context.Background()

	// Both replicas boot from the same -shards flag: in sync at epoch 0.
	if da, db := tr.a.cnode.Current(), tr.b.cnode.Current(); da.Hash != db.Hash || da.Epoch != 0 {
		t.Fatalf("bootstrap documents diverge: %d/%s vs %d/%s", da.Epoch, da.Hash, db.Epoch, db.Hash)
	}

	b3 := tr.addBackend(t, "s3", tr.aa)
	if got := len(tr.b.cnode.Current().Members); got != 2 {
		t.Fatalf("b learned the new member before any gossip round: %d members", got)
	}
	tr.a.cnode.GossipNow(ctx)

	da, db := tr.a.cnode.Current(), tr.b.cnode.Current()
	if da.Hash != db.Hash {
		t.Fatalf("documents did not converge in one round: %s vs %s", da.Hash, db.Hash)
	}
	if m := cluster.FindMember(&db, b3.url()); m == nil {
		t.Fatalf("b's document lacks the member added at a: %+v", db.Members)
	}
	// The apply is synchronous: by the time GossipNow returned, b probed
	// the live new member into its ring.
	sl, err := tr.ab.Shards(ctx)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, si := range sl.Shards {
		if si.Base == b3.url() {
			found = true
			if !si.InRing {
				t.Errorf("peer-applied shard %s not in b's ring: %+v", b3.url(), si)
			}
		}
	}
	if !found {
		t.Fatalf("b's shard list lacks %s: %+v", b3.url(), sl.Shards)
	}
	// The peer's audit trail attributes the apply to the origin replica.
	al, err := tr.ab.Audit(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	ae := findAudit(al.Entries, "apply", "ra")
	if ae == nil {
		t.Fatalf("b's audit has no apply entry from ra: %+v", al.Entries)
	}
	if ae.Outcome != "ok" || ae.Detail != "+"+b3.url() {
		t.Errorf("apply entry = %+v, want ok / +%s", ae, b3.url())
	}

	// And the reverse direction: a drain at b fences the shard at a.
	if _, err := tr.ab.DrainShard(ctx, "s1", time.Second); err != nil {
		t.Fatalf("drain s1 via b: %v", err)
	}
	tr.b.cnode.GossipNow(ctx)
	sl, err = tr.aa.Shards(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, si := range sl.Shards {
		if si.Instance == "s1" && (si.DrainState != "drained" || si.InRing) {
			t.Errorf("a did not adopt b's drain of s1: %+v", si)
		}
	}
}

// TestTwoRouterConflictConverges: concurrent conflicting mutations at
// the same epoch converge to the one document that wins the
// deterministic tie-break, with an audit record on each side; the lost
// mutation can simply be re-issued.
func TestTwoRouterConflictConverges(t *testing.T) {
	tr := newTwoRouters(t, 2)
	ctx := context.Background()

	// Same epoch, different members: a adds s3, b adds s4, no gossip yet.
	b3 := tr.addBackend(t, "s3", tr.aa)
	b4 := tr.addBackend(t, "s4", tr.ab)
	da, db := tr.a.cnode.Current(), tr.b.cnode.Current()
	if da.Epoch != db.Epoch {
		t.Fatalf("setup: epochs diverge %d vs %d", da.Epoch, db.Epoch)
	}

	// Gossip from the replica whose document wins the tie-break: it
	// observes the losing document (conflict audit) and pushes its own
	// (apply audit on the adopting side).
	winner, loser := tr.a, tr.b
	winAdm, loseAdm := tr.aa, tr.ab
	lost, lostAdm := b4, tr.ab
	if cluster.Wins(db, da) {
		winner, loser = tr.b, tr.a
		winAdm, loseAdm = tr.ab, tr.aa
		lost, lostAdm = b3, tr.aa
	}
	winner.cnode.GossipNow(ctx)

	da, db = tr.a.cnode.Current(), tr.b.cnode.Current()
	if da.Hash != db.Hash || da.Epoch != db.Epoch {
		t.Fatalf("conflicting documents did not converge: %d/%s vs %d/%s", da.Epoch, da.Hash, db.Epoch, db.Hash)
	}
	has3 := cluster.FindMember(&da, b3.url()) != nil
	has4 := cluster.FindMember(&da, b4.url()) != nil
	if has3 == has4 {
		t.Fatalf("converged document must hold exactly one of the conflicting adds: s3=%v s4=%v", has3, has4)
	}

	// One record per side: the winner rejected the loser's document, the
	// loser applied the winner's.
	wa, err := winAdm.Audit(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e := findAudit(wa.Entries, "conflict", loser.cfg.ReplicaID); e == nil || e.Outcome != "rejected" {
		t.Errorf("winner %s has no rejected-conflict audit from %s: %+v", winner.cfg.ReplicaID, loser.cfg.ReplicaID, wa.Entries)
	}
	la, err := loseAdm.Audit(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e := findAudit(la.Entries, "apply", winner.cfg.ReplicaID); e == nil || e.Outcome != "ok" {
		t.Errorf("loser %s has no apply audit from %s: %+v", loser.cfg.ReplicaID, winner.cfg.ReplicaID, la.Entries)
	}

	// Re-issuing the lost add at its original replica converges both
	// replicas on the full four-member set.
	if _, err := lostAdm.AddShard(ctx, lost.url()); err != nil {
		t.Fatalf("re-adding %s: %v", lost.url(), err)
	}
	loser.cnode.GossipNow(ctx)
	winner.cnode.GossipNow(ctx)
	da, db = tr.a.cnode.Current(), tr.b.cnode.Current()
	if da.Hash != db.Hash || len(da.Members) != 4 {
		t.Fatalf("re-issued add did not converge: %d members, %s vs %s", len(da.Members), da.Hash, db.Hash)
	}
}

// TestTwoRouterAddBesideRepair: ra adds a shard while rb runs a repair
// sweep from the same epoch, then each gossips once. A sweep writes no
// document, so ra's add is the only new epoch and both rings end with the
// new shard. (When the sweep renewed a lease in the document, the two
// equal-epoch documents met in a hash tie-break the add could lose, after
// its placement pass had moved posteriors onto the shard.)
func TestTwoRouterAddBesideRepair(t *testing.T) {
	tr := newTwoRouters(t, 2)
	ctx := context.Background()
	b3 := &backend{name: "s3", dir: t.TempDir(), token: twoRouterToken}
	b3.start(t)
	t.Cleanup(b3.stop)
	tr.backends = append(tr.backends, b3)
	epoch := tr.b.cnode.Current().Epoch
	if a := tr.a.cnode.Current().Epoch; a != epoch {
		t.Fatalf("setup: epochs %d vs %d", a, epoch)
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if _, err := tr.aa.AddShard(ctx, b3.url()); err != nil {
			t.Errorf("add s3 via a: %v", err)
		}
	}()
	go func() {
		defer wg.Done()
		tr.b.RepairNow(ctx)
	}()
	wg.Wait()
	if got := tr.b.cnode.Current().Epoch; got != epoch {
		t.Fatalf("b's sweep moved its document from epoch %d to %d", epoch, got)
	}
	tr.a.cnode.GossipNow(ctx)
	tr.b.cnode.GossipNow(ctx)

	da, db := tr.a.cnode.Current(), tr.b.cnode.Current()
	if da.Hash != db.Hash || da.Epoch != epoch+1 {
		t.Fatalf("documents: a %d/%s, b %d/%s, want both at epoch %d", da.Epoch, da.Hash, db.Epoch, db.Hash, epoch+1)
	}
	for _, rt := range []*Router{tr.a, tr.b} {
		inRing := false
		for _, sh := range rt.shardsIn(shardState.inRing) {
			inRing = inRing || sh.base == b3.url()
		}
		if !inRing {
			t.Errorf("%s's ring lacks the shard added at a", rt.cfg.ReplicaID)
		}
	}
}

// TestMachineEventsLeaveTheDocument: only admin operations write the
// membership document. A repair-loop sweep and a flap quarantine leave its
// epoch where it was; the shard still serves its probation locally.
func TestMachineEventsLeaveTheDocument(t *testing.T) {
	clk := newTestClock()
	rt := newRouterAt(t, Config{
		Shards:         []string{"http://s1.test", "http://s2.test"},
		ProbeInterval:  time.Hour,
		RepairInterval: time.Hour, // the loop runs; a kick starts its sweep
		GossipInterval: -1,
		HTTPClient: &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
			return faultResponse(req, http.StatusOK, "healthy"), nil
		})},
	}, clk)
	t.Cleanup(rt.Close)
	epoch := rt.cnode.Current().Epoch

	rt.kickRepair()
	for deadline := time.Now().Add(5 * time.Second); rt.repairSweeps.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the kicked repair loop never swept")
		}
	}
	if got := rt.cnode.Current().Epoch; got != epoch {
		t.Fatalf("a repair-loop sweep moved the document from epoch %d to %d", epoch, got)
	}

	// Readmit the shard flapCount+1 times inside the flap window: the last
	// readmission quarantines it.
	sh := rt.shardList()[1]
	for i := 0; i <= flapCount; i++ {
		rt.observe(sh, event{kind: evProbe})
		clk.advance(time.Second)
		rt.observe(sh, event{kind: evProbe, alive: true, ready: true})
	}
	if h := healthOf(sh); h.quarantines != 1 || h.probationLeft == 0 {
		t.Fatalf("flapping shard: %d quarantines, probation %d; want quarantined", h.quarantines, h.probationLeft)
	}
	if got := rt.cnode.Current().Epoch; got != epoch {
		t.Fatalf("a flap quarantine moved the document from epoch %d to %d", epoch, got)
	}
}

// TestTwoRouterE2EServe is the two-router end-to-end: a shard added via
// replica a serves jobs submitted via replica b after one gossip round.
// (CI runs this file's tests as the two-router e2e job.)
func TestTwoRouterE2EServe(t *testing.T) {
	tr := newTwoRouters(t, 2)
	ctx := context.Background()

	tr.addBackend(t, "s3", tr.aa)
	tr.a.cnode.GossipNow(ctx)

	// Fence the two original shards at b so a submission via b can only
	// be served by the peer-learned member.
	for _, name := range []string{"s1", "s2"} {
		if _, err := tr.ab.DrainShard(ctx, name, time.Second); err != nil {
			t.Fatalf("drain %s via b: %v", name, err)
		}
	}
	c := client.New(tr.sb.URL)
	st, err := c.Submit(ctx, helix(6), cheapParams())
	if err != nil {
		t.Fatalf("submit via b: %v", err)
	}
	if got := encode.JobInstance(st.ID); got != "s3" {
		t.Fatalf("job landed on %q, want the peer-added shard s3", got)
	}
	wctx, cancel := context.WithTimeout(ctx, 120*time.Second)
	defer cancel()
	if _, err := c.Wait(wctx, st.ID, 10*time.Millisecond, encode.JobDone); err != nil {
		t.Fatalf("job on peer-added shard never finished: %v", err)
	}
}

// TestShardsByLoadOrder: broadcast job lookups probe shards
// least-loaded-first by the queue_depth+running gauges, stable on ties.
func TestShardsByLoadOrder(t *testing.T) {
	rt, err := New(Config{
		Shards:         []string{"http://a.invalid", "http://b.invalid", "http://c.invalid", "http://d.invalid"},
		ProbeInterval:  time.Hour,
		RepairInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	loads := map[string][2]int{ // base suffix -> {queueDepth, running}
		"http://a.invalid": {5, 1},
		"http://b.invalid": {0, 0},
		"http://c.invalid": {0, 2},
		"http://d.invalid": {0, 0},
	}
	for _, sh := range rt.shardList() {
		l := loads[sh.base]
		sh.mu.Lock()
		sh.queueDepth, sh.running = l[0], l[1]
		sh.mu.Unlock()
	}
	var got []string
	for _, sh := range rt.shardsByLoad() {
		got = append(got, sh.base)
	}
	want := []string{"http://b.invalid", "http://d.invalid", "http://c.invalid", "http://a.invalid"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("shardsByLoad order = %v, want %v", got, want)
		}
	}
}
