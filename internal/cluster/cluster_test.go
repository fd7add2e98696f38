package cluster

// The replicated membership document and its gossip protocol, exercised
// without a router: hashing and canonical form, the CAS mutation step,
// the merge rule (higher epoch wins, equal epochs tie-break by hash so
// both sides converge), the gossip jitter, and two live nodes converging
// over httptest exchanges.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"phmse/internal/encode"
)

func memberBases(doc encode.ClusterDoc) []string {
	out := make([]string, 0, len(doc.Members))
	for _, m := range doc.Members {
		out = append(out, m.Base)
	}
	return out
}

// TestHashCanonicalForm: the hash is over canonical (sorted, hash-less)
// content, so member order and the stored Hash field don't affect it.
func TestHashCanonicalForm(t *testing.T) {
	a := encode.ClusterDoc{Epoch: 3, Origin: "ra", Members: []encode.ClusterMember{
		{Base: "http://s2"}, {Base: "http://s1", DrainState: "drained"},
	}}
	b := encode.ClusterDoc{Epoch: 3, Origin: "ra", Members: []encode.ClusterMember{
		{Base: "http://s1", DrainState: "drained"}, {Base: "http://s2"},
	}, Hash: "stale-stored-hash"}
	if HashDoc(a) != HashDoc(b) {
		t.Fatal("hash depends on member order or the stored hash field")
	}
	c := a
	c.Members = append([]encode.ClusterMember(nil), a.Members...)
	c.Members[0].DrainState = "draining"
	if HashDoc(a) == HashDoc(c) {
		t.Fatal("hash ignores member content")
	}
}

// TestMutateCAS: each mutation consumes its own epoch, stamps origin and
// hash, and an aborted mutation leaves the document untouched.
func TestMutateCAS(t *testing.T) {
	n := New(Config{ReplicaID: "ra", Interval: -1}, encode.ClusterDoc{
		Members: []encode.ClusterMember{{Base: "http://s1"}},
	})
	doc, changed := n.Mutate(func(doc *encode.ClusterDoc) bool {
		SetMember(doc, encode.ClusterMember{Base: "http://s2"})
		return true
	})
	if !changed || doc.Epoch != 1 || doc.Origin != "ra" || len(doc.Members) != 2 {
		t.Fatalf("mutate = %+v changed=%v", doc, changed)
	}
	if doc.Hash != HashDoc(doc) {
		t.Fatal("mutate left a stale hash")
	}
	// Canonical order is maintained on insert.
	if got := memberBases(doc); got[0] != "http://s1" || got[1] != "http://s2" {
		t.Fatalf("members not canonical: %v", got)
	}
	doc2, changed := n.Mutate(func(doc *encode.ClusterDoc) bool { return false })
	if changed || doc2.Epoch != 1 {
		t.Fatalf("aborted mutate changed the doc: %+v changed=%v", doc2, changed)
	}
	if _, changed = n.Mutate(func(doc *encode.ClusterDoc) bool {
		return RemoveMember(doc, "http://s2")
	}); !changed {
		t.Fatal("remove aborted")
	}
	if cur := n.Current(); cur.Epoch != 2 || len(cur.Members) != 1 {
		t.Fatalf("after remove: %+v", cur)
	}
}

// TestMergeRule: higher epoch wins, stale docs are kept out, equal-epoch
// conflicts resolve by hash the same way on both sides, and a document
// whose hash doesn't match its content is rejected.
func TestMergeRule(t *testing.T) {
	mk := func(id string) *Node {
		return New(Config{ReplicaID: id, Interval: -1}, encode.ClusterDoc{
			Members: []encode.ClusterMember{{Base: "http://s1"}},
		})
	}
	a, b := mk("ra"), mk("rb")
	if a.Current().Hash != b.Current().Hash {
		t.Fatal("identical bootstraps disagree")
	}

	// One-sided mutation: higher epoch adopted, and the reverse direction
	// keeps the newer doc.
	a.Mutate(func(doc *encode.ClusterDoc) bool {
		SetMember(doc, encode.ClusterMember{Base: "http://s2"})
		return true
	})
	if out := b.merge(a.Current()); out != mergeAdopted {
		t.Fatalf("b merge(a) = %v, want adopted", out)
	}
	if out := a.merge(encode.ClusterDoc{Epoch: 0, Hash: HashDoc(encode.ClusterDoc{})}); out != mergeStale {
		t.Fatalf("stale merge = %v, want kept-local", out)
	}
	if out := a.merge(b.Current()); out != mergeInSync {
		t.Fatalf("in-sync merge = %v", out)
	}

	// Concurrent conflicting mutations: same epoch, different content.
	// Whichever hash wins, both sides must end on the same document.
	a.Mutate(func(doc *encode.ClusterDoc) bool {
		SetMember(doc, encode.ClusterMember{Base: "http://s3a"})
		return true
	})
	b.Mutate(func(doc *encode.ClusterDoc) bool {
		SetMember(doc, encode.ClusterMember{Base: "http://s3b"})
		return true
	})
	da, db := a.Current(), b.Current()
	if da.Epoch != db.Epoch {
		t.Fatalf("setup: epochs differ (%d vs %d)", da.Epoch, db.Epoch)
	}
	outA, outB := a.merge(db), b.merge(da)
	if a.Current().Hash != b.Current().Hash {
		t.Fatalf("conflict did not converge: %q vs %q", a.Current().Hash, b.Current().Hash)
	}
	if !((outA == mergeAdoptedConflict && outB == mergeKeptConflict) ||
		(outA == mergeKeptConflict && outB == mergeAdoptedConflict)) {
		t.Fatalf("conflict outcomes = %v/%v, want one adopted + one kept", outA, outB)
	}

	// A tampered document is rejected regardless of epoch.
	bad := a.Current()
	bad.Epoch = 99
	if out := a.merge(bad); out != mergeRejected {
		t.Fatalf("tampered merge = %v, want rejected", out)
	}
	if a.rejected.Load() != 1 {
		t.Fatalf("rejected counter = %d", a.rejected.Load())
	}
}

// TestJitterIntervalBounds pins the gossip and sweep cadence spread to
// ±20%.
func TestJitterIntervalBounds(t *testing.T) {
	const d = time.Second
	for i := 0; i < 1000; i++ {
		j := JitterInterval(d)
		if j < 800*time.Millisecond || j > 1200*time.Millisecond {
			t.Fatalf("jitter(%v) = %v, out of [0.8d, 1.2d]", d, j)
		}
	}
	if JitterInterval(0) != 0 || JitterInterval(-time.Second) != -time.Second {
		t.Fatal("non-positive intervals must pass through unjittered")
	}
}

// gossipPair wires two nodes together over real HTTP exchanges.
func gossipPair(t *testing.T) (*Node, *Node) {
	t.Helper()
	var a, b *Node
	handler := func(n **Node) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			var req encode.GossipRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			resp := (*n).HandleExchange(req)
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(resp) //nolint:errcheck
		}
	}
	sa := httptest.NewServer(handler(&a))
	sb := httptest.NewServer(handler(&b))
	t.Cleanup(sa.Close)
	t.Cleanup(sb.Close)
	seed := encode.ClusterDoc{Members: []encode.ClusterMember{{Base: "http://s1"}}}
	a = New(Config{ReplicaID: "ra", Peers: []string{sb.URL}, Interval: -1}, seed)
	b = New(Config{ReplicaID: "rb", Peers: []string{sa.URL}, Interval: -1}, seed)
	return a, b
}

// TestGossipConvergence: a mutation at one node reaches the other within
// one round in either direction (the receiver adopts when the sender's
// doc is newer, the sender when the receiver's is), and nobody adopts in
// an in-sync round.
func TestGossipConvergence(t *testing.T) {
	a, b := gossipPair(t)
	ctx := context.Background()

	// In-sync round: no documents move.
	a.GossipNow(ctx)
	if a.adopted.Load() != 0 || b.adopted.Load() != 0 {
		t.Fatalf("bootstrap round: adopted a=%d b=%d", a.adopted.Load(), b.adopted.Load())
	}
	if ps := a.PeerStates(); len(ps) != 1 || !ps[0].InSync || ps[0].LastContactUnixMs == 0 {
		t.Fatalf("peer state = %+v", ps)
	}

	// a mutates, a gossips, b converges in that same round.
	a.Mutate(func(doc *encode.ClusterDoc) bool {
		SetMember(doc, encode.ClusterMember{Base: "http://s2"})
		return true
	})
	a.GossipNow(ctx)
	if a.Current().Hash != b.Current().Hash {
		t.Fatal("a's round did not converge")
	}
	if b.adopted.Load() != 1 {
		t.Fatalf("b adopted %d documents, want 1", b.adopted.Load())
	}

	// b mutates, a initiates, a adopts in its own round.
	b.Mutate(func(doc *encode.ClusterDoc) bool {
		SetMember(doc, encode.ClusterMember{Base: "http://s3"})
		return true
	})
	a.GossipNow(ctx)
	if a.Current().Hash != b.Current().Hash || a.adopted.Load() != 1 {
		t.Fatalf("pull round did not converge (adopted=%d)", a.adopted.Load())
	}
}

// TestGossipConflictConvergence: concurrent equal-epoch mutations at
// both nodes converge to the single hash-winning document after one
// round, with the conflict counted on both sides.
func TestGossipConflictConvergence(t *testing.T) {
	a, b := gossipPair(t)
	a.Mutate(func(doc *encode.ClusterDoc) bool {
		SetMember(doc, encode.ClusterMember{Base: "http://s3a"})
		return true
	})
	b.Mutate(func(doc *encode.ClusterDoc) bool {
		SetMember(doc, encode.ClusterMember{Base: "http://s3b"})
		return true
	})
	a.GossipNow(context.Background())
	da, db := a.Current(), b.Current()
	if da.Hash != db.Hash {
		t.Fatalf("conflict did not converge: %q vs %q", da.Hash, db.Hash)
	}
	if a.conflicts.Load() == 0 || b.conflicts.Load() == 0 {
		t.Fatalf("conflict counters = %d/%d, want both > 0", a.conflicts.Load(), b.conflicts.Load())
	}
	if len(da.Members) != 2 {
		t.Fatalf("winner holds %v, want the winning member only", memberBases(da))
	}
	if adopts := int(a.adopted.Load() + b.adopted.Load()); adopts != 1 {
		t.Fatalf("adoptions = %d, want exactly the losing side", adopts)
	}
}

// TestGossipLoopConverges: the background loop (no manual rounds)
// propagates a mutation between two live nodes.
func TestGossipLoopConverges(t *testing.T) {
	var a, b *Node
	handler := func(n **Node) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			var req encode.GossipRequest
			json.NewDecoder(r.Body).Decode(&req) //nolint:errcheck
			writeResp := (*n).HandleExchange(req)
			json.NewEncoder(w).Encode(writeResp) //nolint:errcheck
		}
	}
	sa := httptest.NewServer(handler(&a))
	sb := httptest.NewServer(handler(&b))
	defer sa.Close()
	defer sb.Close()
	seed := encode.ClusterDoc{Members: []encode.ClusterMember{{Base: "http://s1"}}}
	a = New(Config{ReplicaID: "ra", Peers: []string{sb.URL}, Interval: 10 * time.Millisecond}, seed)
	b = New(Config{ReplicaID: "rb", Peers: []string{sa.URL}, Interval: 10 * time.Millisecond}, seed)
	a.Start()
	b.Start()
	defer a.Close()
	defer b.Close()

	a.Mutate(func(doc *encode.ClusterDoc) bool {
		SetMember(doc, encode.ClusterMember{Base: "http://s2"})
		return true
	})
	a.Kick()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if b.Current().Epoch == 1 && b.Current().Hash == a.Current().Hash {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("loop never converged: a=%d/%q b=%d/%q",
		a.Current().Epoch, a.Current().Hash, b.Current().Epoch, b.Current().Hash)
}
