package router

// The router's half of the replicated control plane (internal/cluster):
// every replica keeps an epoch-stamped membership document, admin
// mutations CAS-bump it under adminMu, and an anti-entropy gossip loop
// converges the replicas so a mutation applied at ANY router reflects in
// every ring within one gossip round.
//
// The document is the only membership writer, and only admin operations
// write it. An admin operation is a sequence of steps — mutate the
// document, reconcile the shard set to it — around a placement pass; a
// gossip adoption is the same reconciliation under the same adminMu, so
// the two never interleave on ring generations. reconcileMembership alone
// adds or drops a member and sets a shard's fence. Remote applies never
// move posteriors: the mutating replica owns that pass, and every
// replica's sweeper converges whatever it left behind.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"

	"phmse/internal/encode"
)

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

// step is one local membership step: run one CAS mutation of the
// document (kicking the gossip loop, so the new epoch propagates at once),
// then reconcile the shard set to it. Callers hold adminMu and write their
// own audit record.
func (rt *Router) step(ctx context.Context, fn func(doc *encode.ClusterDoc) bool) {
	if _, changed := rt.cnode.Mutate(fn); changed {
		rt.cnode.Kick()
	}
	rt.reconcileMembership(ctx, rt.cnode.Current(), false)
}

// applyDocLocked folds in a document adopted from a peer. Callers hold
// adminMu. Only an effective membership change (member added, removed, or
// drain state moved) is audited: an adoption that leaves this replica's
// shard set as it was (the same membership reached another way) is not
// history.
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
// missing members join, and drain fences follow the document. Joiners
// start pessimistic and are admitted by a synchronous probe, so
// "converged within one gossip round" includes the ring — except at boot,
// where the configured shards start optimistically in the ring and the
// first probe or forward ejects the dead ones.
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
		sh.mu.Unlock()
		if ok {
			members = append(members, sh)
		}
	}
	for _, m := range doc.Members {
		if _, isNew := inDoc[m.Base]; !isNew {
			continue
		}
		sh := &shard{name: m.Base, base: m.Base, drain: m.DrainState,
			health: health{alive: boot, ready: boot}}
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
// synchronously before the response, so a sender that posted a winning
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
