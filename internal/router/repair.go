package router

// The placement pass and the anti-entropy sweeper that runs it.
//
// One function, place, makes posterior holdings match ring ownership:
// index the source shards, look every posterior's topology key up in the
// current ring, and move the misplaced ones through the ack-before-delete
// transfer protocol (transfer.go). Its three callers differ only in scope:
//
//	sweep (periodic, kicked, POST /admin/v1/repair)  sources = placeable members
//	add / reactivate                                 sources = askable members,
//	                                                 filtered to the changed arcs
//	drain / remove                                   source  = the fenced shard
//
// A fenced (draining or drained) shard is never a sweep source — the drain
// owns its evacuation — and never a destination. The pass is idempotent
// and convergent: running it twice is merely wasteful, and an interrupted
// transfer leaves the source intact for the next one. Passes serialize
// with membership changes under adminMu.
//
// The sweeper exists because an admin pass can leave work behind (a
// destination down mid-stream, an import rejected) and a shard that
// crashed and rejoined holds posteriors the ring reassigned meanwhile; an
// admin pass that reported failures kicks it instead of waiting.

import (
	"context"
	"log"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"phmse/internal/encode"
)

// repairLoop drives periodic sweeps until Close. The interval is
// jittered ±20% so multiple routers over the same cluster spread out; a
// kick (an admin pass that reported failures) wakes the sweeper
// immediately.
func (rt *Router) repairLoop() {
	defer close(rt.repairDone)
	if rt.cfg.RepairInterval < 0 {
		return
	}
	for {
		t := time.NewTimer(jitterInterval(rt.cfg.RepairInterval))
		select {
		case <-rt.stop:
			t.Stop()
			return
		case <-t.C:
		case <-rt.repairKick:
			t.Stop()
		}
		rt.repairTick()
	}
}

// repairTick is one loop iteration: acquire (or renew) the cluster-wide
// sweeper lease, and only then sweep. Exactly one replica holds a live
// lease per interval — the others see it via gossip (the acquisition is
// gossiped at once) and skip, so two routers never race duplicate
// transfers. A crashed holder's lease expires after LeaseTTL. The forced
// sweep (POST /admin/v1/repair) stays unconditional.
func (rt *Router) repairTick() {
	if !rt.cnode.TryAcquireLease(time.Now(), rt.cfg.LeaseTTL) {
		rt.leaseSkips.Add(1)
		return
	}
	rt.cnode.Kick()
	rt.RepairNow(context.Background())
}

// jitterInterval spreads d over [0.8d, 1.2d).
func jitterInterval(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d - d/5 + time.Duration(rand.Int63n(int64(d)/5*2+1))
}

// kickRepair schedules an immediate sweep; a no-op when one is already
// pending or the loop is disabled.
func (rt *Router) kickRepair() {
	select {
	case rt.repairKick <- struct{}{}:
	default:
	}
}

// RepairNow runs one synchronous anti-entropy sweep and reports what it
// did. Exported for tests and served at POST /admin/v1/repair; the
// background loop calls it on its jittered cadence.
func (rt *Router) RepairNow(ctx context.Context) encode.RepairReport {
	rt.adminMu.Lock()
	defer rt.adminMu.Unlock()
	p := rt.place(ctx, rt.shardsIn(shardState.placeable), nil)
	rt.repairSweeps.Add(1)
	rt.repairRepaired.Add(int64(p.moved))
	rt.repairFailed.Add(int64(p.failed))
	rt.repairSkipped.Add(int64(p.skipped))
	if p.moved > 0 || p.failed > 0 {
		rt.aud.append(encode.AuditEntry{
			Op: "repair", Origin: rt.cfg.ReplicaID, Outcome: migrationOutcome(p.failed),
			Migrated: p.moved, Failed: p.failed,
		})
	}
	return encode.RepairReport{Scanned: p.scanned, Repaired: p.moved, Failed: p.failed, Skipped: p.skipped, Bytes: p.bytes}
}

// migrate runs the placement pass of one admin membership change and
// reports it in migration terms. A filter with no changed arc means both
// rings route every key identically: no pass runs. A pass that left
// posteriors behind kicks the sweeper. Callers hold adminMu.
func (rt *Router) migrate(ctx context.Context, sources []*shard, arcs *encode.ArcSet) encode.MigrationReport {
	if arcs != nil && !arcs.Any() {
		return encode.MigrationReport{}
	}
	p := rt.place(ctx, sources, arcs)
	rt.migrPasses.Add(1)
	rt.migrMigrated.Add(int64(p.moved))
	rt.migrFailed.Add(int64(p.failed))
	rt.migrSkipped.Add(int64(p.skipped))
	rt.migrBytes.Add(p.bytes)
	if p.failed > 0 {
		rt.kickRepair()
	}
	return encode.MigrationReport{Migrated: p.moved, Failed: p.failed, Skipped: p.skipped, Bytes: p.bytes}
}

// placement tallies one pass: posteriors indexed, moved to their owner
// (destination acknowledged, source deleted), failed (including a source
// whose index could not be read), and skipped (no routing key, or no
// placeable owner).
type placement struct {
	scanned, moved, failed, skipped int
	bytes                           int64
}

// place is the placement pass, run under adminMu: every posterior the
// sources hold whose ring owner is another shard moves there. arcs, when
// set, limits the pass to keys inside the changed arcs.
func (rt *Router) place(ctx context.Context, sources []*shard, arcs *encode.ArcSet) placement {
	var p placement
	ring := rt.currentRing()
	type move struct {
		src, dst *shard
		info     encode.PosteriorInfo
	}
	var moves []move
	for _, src := range sources {
		idx, err := rt.fetchPosteriorIndex(ctx, src, "")
		if err != nil {
			log.Printf("phmse-router: placement: indexing %s: %v", src.name, err)
			p.failed++
			continue
		}
		for _, info := range idx.Posteriors {
			p.scanned++
			if info.TopologyHash == "" {
				p.skipped++
				continue
			}
			if arcs != nil && !arcs.Contains(encode.KeyHash(info.TopologyHash)) {
				continue
			}
			dst := ring.lookup(info.TopologyHash)
			if dst == src {
				continue // correctly placed
			}
			// The ring excludes fenced shards, but a fence or a death
			// since this ring was published must not receive a posterior.
			if dst == nil || !dst.state().placeable() {
				p.skipped++
				continue
			}
			moves = append(moves, move{src, dst, info})
		}
	}

	sem := make(chan struct{}, placeConcurrency)
	var wg sync.WaitGroup
	var mu sync.Mutex // guards p
	for _, m := range moves {
		sem <- struct{}{}
		wg.Add(1)
		go func(m move) {
			defer wg.Done()
			defer func() { <-sem }()
			err := rt.transferPosterior(ctx, m.src, m.dst, m.info)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				log.Printf("phmse-router: placement: moving %s (%s -> %s): %v", m.info.Job, m.src.name, m.dst.name, err)
				p.failed++
				return
			}
			p.moved++
			p.bytes += m.info.Bytes
		}(m)
	}
	wg.Wait()
	return p
}

func (rt *Router) handleAdminRepair(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.RepairNow(r.Context()))
}
