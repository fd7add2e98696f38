package router

// The router's half of the replicated control plane (internal/cluster):
// every replica keeps an epoch-stamped membership document, admin
// mutations CAS-bump it under adminMu, and an anti-entropy gossip loop
// converges the replicas so a mutation applied at ANY router reflects in
// every ring within one gossip round.
//
// The document is the only membership writer. An admin operation is a
// sequence of steps — mutate the document, reconcile the shard set to it
// — around a placement pass; a gossip adoption is the same reconciliation
// under the same adminMu, so the two never interleave on ring
// generations. reconcileMembership alone adds or drops a member and sets
// a shard's fence. Remote applies never move posteriors: the mutating
// replica owns that pass, and the lease-holding sweeper converges
// whatever it left behind.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"

	"phmse/internal/cluster"
	"phmse/internal/encode"
)

// mutateDoc runs one CAS mutation of the membership document and kicks
// the gossip loop so the new epoch propagates at once. Callers hold
// adminMu, except publishQuarantine: it edits one member's quarantine
// counter, which reconciliation merges max-wise, so it cannot lose an
// interleaved membership update.
func (rt *Router) mutateDoc(fn func(doc *encode.ClusterDoc) bool) {
	if _, changed := rt.cnode.Mutate(fn); changed {
		rt.cnode.Kick()
	}
}

// GossipNow runs one synchronous anti-entropy round against every peer.
// By return, every adopted document has been applied to this router's
// ring and every peer this router's document beat has applied it.
// Exported for tests and deterministic orchestration.
func (rt *Router) GossipNow(ctx context.Context) {
	rt.cnode.GossipNow(ctx)
}

// onClusterAdopt fires (outside the node lock) whenever a peer's
// document replaced the local one; it applies the adopted membership.
func (rt *Router) onClusterAdopt() {
	rt.adminMu.Lock()
	defer rt.adminMu.Unlock()
	rt.applyDocLocked(context.Background())
}

// onClusterConflict records an equal-epoch document that lost the
// deterministic tie-break: the peer's mutation was rejected here (and
// will be overwritten there), which an operator should be able to see.
func (rt *Router) onClusterConflict(remoteOrigin, remoteHash string) {
	short := remoteHash
	if len(short) > 12 {
		short = short[:12]
	}
	rt.aud.append(encode.AuditEntry{
		Op: "conflict", Origin: remoteOrigin, Outcome: "rejected",
		Detail: fmt.Sprintf("equal-epoch document %s lost the tie-break", short),
	})
}

// step is one local membership step: mutate the document, then reconcile
// the shard set to it. Callers hold adminMu and write their own audit
// record.
func (rt *Router) step(ctx context.Context, fn func(doc *encode.ClusterDoc) bool) {
	rt.mutateDoc(fn)
	rt.reconcileMembership(ctx, rt.cnode.Current(), false)
}

// applyDocLocked folds in a document adopted from a peer. Callers hold
// adminMu. Only an effective membership change (member added, removed, or
// drain state moved) is audited — lease renewals and quarantine syncs
// bump epochs constantly and are operational noise, not history.
func (rt *Router) applyDocLocked(ctx context.Context) {
	doc := rt.cnode.Current()
	detail := rt.reconcileMembership(ctx, doc, false)
	if detail == "" {
		return
	}
	rt.clusterApplies.Add(1)
	rt.aud.append(encode.AuditEntry{
		Op: "apply", Origin: doc.Origin, Outcome: "ok", Detail: detail,
	})
}

// reconcileMembership makes the shard set equal the document's member
// list: members the document lacks are latched removed and dropped,
// missing members join, and drain fences and quarantine counters follow
// the document. Joiners start pessimistic and are admitted by a
// synchronous probe, so "converged within one gossip round" includes the
// ring — except at boot, where the configured shards start optimistically
// in the ring and the first probe or forward ejects the dead ones.
// Returns a "+base -base ~base" summary of the effective changes, ""
// when membership already matched.
func (rt *Router) reconcileMembership(ctx context.Context, doc encode.ClusterDoc, boot bool) string {
	var changes []string
	inDoc := make(map[string]encode.ClusterMember, len(doc.Members))
	for _, m := range doc.Members {
		inDoc[m.Base] = m
	}
	members := make([]*shard, 0, len(doc.Members))
	var toProbe []*shard
	for _, sh := range rt.shardList() {
		m, ok := inDoc[sh.base]
		delete(inDoc, sh.base)
		sh.mu.Lock()
		switch {
		case !ok:
			sh.removed = true
			changes = append(changes, "-"+sh.base)
		case sh.drain != m.DrainState:
			sh.drain = m.DrainState
			changes = append(changes, "~"+sh.base)
			if m.DrainState == "" { // reactivated
				toProbe = append(toProbe, sh)
			}
		}
		sh.quarantines = max(sh.quarantines, m.Quarantines)
		sh.mu.Unlock()
		if ok {
			members = append(members, sh)
		}
	}
	for _, m := range doc.Members {
		if _, isNew := inDoc[m.Base]; !isNew {
			continue
		}
		sh := &shard{name: m.Base, base: m.Base, alive: boot, ready: boot, drain: m.DrainState, quarantines: m.Quarantines}
		members = append(members, sh)
		changes = append(changes, "+"+m.Base)
		if m.DrainState == "" && !boot {
			toProbe = append(toProbe, sh)
		}
	}
	if len(changes) == 0 {
		return ""
	}
	rt.rebuild(members)

	// Probe the members that just became ring-eligible, concurrently but
	// synchronously (each probe republishes the view on its transition):
	// when reconciliation returns, a live new member is in the ring.
	var wg sync.WaitGroup
	for _, sh := range toProbe {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			rt.probeShard(ctx, sh)
		}(sh)
	}
	wg.Wait()
	if len(toProbe) > 0 {
		// The background prober may have admitted the same member first
		// and not yet published that: the probe above then saw no
		// transition and published nothing, and the placement pass that
		// follows would diff the old ring against itself.
		rt.rebuild(nil)
	}
	sort.Strings(changes)
	return strings.Join(changes, " ")
}

// publishQuarantine folds a shard's new quarantine count into the
// document so the probation it triggered is served cluster-wide. Called
// from the probe path, deliberately without adminMu (see mutateDoc).
func (rt *Router) publishQuarantine(base string, quarantines int) {
	rt.mutateDoc(func(doc *encode.ClusterDoc) bool {
		m := cluster.FindMember(doc, base)
		if m == nil || m.Quarantines >= quarantines {
			return false
		}
		m.Quarantines = quarantines
		return true
	})
}

// handleClusterState serves GET /cluster/v1/state: the replica's
// identity, current document, and peer health.
func (rt *Router) handleClusterState(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, encode.ClusterView{
		ReplicaID: rt.cfg.ReplicaID,
		Doc:       rt.cnode.Current(),
		Peers:     rt.cnode.PeerStates(),
	})
}

// handleClusterExchange serves POST /cluster/v1/state, the gossip
// endpoint. Merging (and any resulting membership apply) happens
// synchronously before the response, so a sender that pushed a winning
// document knows the receiver's ring reflects it when the call returns.
func (rt *Router) handleClusterExchange(w http.ResponseWriter, r *http.Request) {
	var req encode.GossipRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, encode.CodeBadRequest,
			fmt.Sprintf("decoding gossip request: %v", err))
		return
	}
	writeJSON(w, http.StatusOK, rt.cnode.HandleExchange(req))
}
