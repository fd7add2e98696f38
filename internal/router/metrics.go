package router

import (
	"net/http"
	"time"

	"phmse/internal/encode"
)

// Metrics is the JSON document served at the router's /metrics.
type Metrics struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	// RingShards is the number of shards currently in the ring (ready);
	// UnhealthyShards counts configured shards outside it.
	RingShards      int `json:"ring_shards"`
	UnhealthyShards int `json:"unhealthy_shards"`
	VNodesPerShard  int `json:"vnodes_per_shard"`
	// Totals across all shards.
	Forwarded int64 `json:"forwarded"`
	Failed    int64 `json:"failed"`
	Retried   int64 `json:"retried"`
	// NoShard counts requests refused because no shard could serve them;
	// ListFanouts counts cross-shard listing merges.
	NoShard     int64 `json:"no_shard"`
	ListFanouts int64 `json:"list_fanouts"`
	// ShardInflightLimit is the configured per-shard in-flight cap (0 =
	// unlimited); Saturated counts requests the router answered 429
	// because every eligible shard was at that cap.
	ShardInflightLimit int   `json:"shard_inflight_limit,omitempty"`
	Saturated          int64 `json:"saturated"`
	// BreakerRefused counts requests the router turned away because the
	// target shard's circuit breaker was open (or its half-open trial slot
	// was taken).
	BreakerRefused int64 `json:"breaker_refused"`
	// WarmForwards reports how warm-started submissions found their
	// posterior's shard.
	WarmForwards MetricsWarmForwards `json:"warm_forwards"`
	// Migration totals across every admin membership change.
	Migration MetricsMigration `json:"migration"`
	// Repair tallies the anti-entropy sweeps.
	Repair MetricsRepair `json:"repair"`
	// Cluster reports the replicated control plane: document
	// epoch/origin, gossip traffic, and the repair-sweeper lease.
	Cluster MetricsCluster `json:"cluster"`
	Shards  []ShardMetrics `json:"shards"`
}

// MetricsCluster reports the replicated membership document and its
// gossip loop.
type MetricsCluster struct {
	// ReplicaID is this router's identity in the document.
	ReplicaID string `json:"replica_id"`
	// Epoch/Origin/Hash describe the current document: its version, the
	// replica that produced it, and its content digest.
	Epoch  uint64 `json:"epoch"`
	Origin string `json:"origin,omitempty"`
	Hash   string `json:"hash"`
	// Members is the document's member count (including fenced ones).
	Members int `json:"members"`
	// GossipRounds counts anti-entropy rounds started; GossipInSync the
	// digest probes short-circuited because both sides matched.
	GossipRounds int64 `json:"gossip_rounds"`
	GossipInSync int64 `json:"gossip_in_sync"`
	// DocsAdopted counts remote documents that replaced the local one;
	// Conflicts counts equal-epoch tie-breaks (adopted or rejected);
	// DocsRejected counts documents refused for a bad content hash.
	DocsAdopted  int64 `json:"docs_adopted"`
	Conflicts    int64 `json:"conflicts"`
	DocsRejected int64 `json:"docs_rejected"`
	// Pushes counts full-document pushes sent after a digest mismatch
	// our document won; PeerFailures counts failed exchanges.
	Pushes       int64 `json:"pushes"`
	PeerFailures int64 `json:"peer_failures"`
	// Applied counts adopted documents that changed membership here.
	Applied int64 `json:"applied"`
	// LeaseHolder/LeaseEpoch/LeaseExpiresUnixMs mirror the repair-
	// sweeper lease in the document; LeaseSkips counts repair ticks this
	// replica skipped because a peer held a live lease.
	LeaseHolder        string `json:"lease_holder,omitempty"`
	LeaseEpoch         uint64 `json:"lease_epoch,omitempty"`
	LeaseExpiresUnixMs int64  `json:"lease_expires_unix_ms,omitempty"`
	LeaseSkips         int64  `json:"lease_skips"`
	// Peers is the per-peer exchange health.
	Peers []encode.ClusterPeer `json:"peers,omitempty"`
}

// MetricsWarmForwards tallies warm-start placement. Direct counts
// submissions forwarded straight to the shard their job id names;
// Relocated those (re-)sent to a holder found by index lookup after that
// shard disowned the posterior or could not be named; Unresolved the
// references no askable shard held. Relocated/Direct is the miss rate the
// optimistic forward bets on: 0 on a settled cluster, above it only after
// a placement pass has moved posteriors.
type MetricsWarmForwards struct {
	Direct     int64 `json:"direct"`
	Relocated  int64 `json:"relocated"`
	Unresolved int64 `json:"unresolved"`
}

// MetricsMigration tallies the posterior migration passes run by admin
// membership changes.
type MetricsMigration struct {
	// Passes counts migration passes (one per effective membership
	// change); Migrated/Failed/Skipped count posteriors across all of
	// them, Bytes the payload moved.
	Passes   int64 `json:"passes"`
	Migrated int64 `json:"migrated"`
	Failed   int64 `json:"failed"`
	Skipped  int64 `json:"skipped"`
	Bytes    int64 `json:"bytes"`
}

// MetricsRepair tallies the anti-entropy repair sweeps.
type MetricsRepair struct {
	// Sweeps counts completed sweeps (periodic, kicked, and admin-driven);
	// Repaired/Failed/Skipped count posteriors across all of them.
	Sweeps   int64 `json:"sweeps"`
	Repaired int64 `json:"repaired"`
	Failed   int64 `json:"failed"`
	Skipped  int64 `json:"skipped"`
}

// ShardMetrics is one backend's routing state and forwarding counters.
type ShardMetrics struct {
	Base       string `json:"base"`
	InstanceID string `json:"instance_id,omitempty"`
	Alive      bool   `json:"alive"`
	Ready      bool   `json:"ready"`
	// ConsecutiveFailures is the current probe-failure streak driving the
	// capped backoff (0 for a healthy shard).
	ConsecutiveFailures int   `json:"consecutive_failures,omitempty"`
	Forwarded           int64 `json:"forwarded"`
	Failed              int64 `json:"failed"`
	Retried             int64 `json:"retried"`
	// Inflight is the gauge of requests currently forwarded to this shard
	// (always 0 when no in-flight limit is configured); Rejected counts
	// requests the limiter turned away at this shard.
	Inflight int64 `json:"inflight"`
	Rejected int64 `json:"rejected"`
	// QueueDepth and Running mirror the shard's last /readyz probe — the
	// per-shard load gauge (groundwork for load-aware ring weighting).
	QueueDepth int `json:"queue_depth"`
	Running    int `json:"running"`
	// DrainState is non-empty while the admin API holds the shard out of
	// the ring ("draining" or "drained").
	DrainState string `json:"drain_state,omitempty"`
	// BreakerState is "closed", "open", or "half_open"; the counters tally
	// lifetime transitions into open/half-open/closed.
	BreakerState     string `json:"breaker_state"`
	BreakerOpens     int64  `json:"breaker_opens,omitempty"`
	BreakerHalfOpens int64  `json:"breaker_half_opens,omitempty"`
	BreakerCloses    int64  `json:"breaker_closes,omitempty"`
	// Quarantines counts flap-suppression quarantines imposed on this
	// shard; ProbationLeft is the consecutive good probes still required
	// before the ring takes it back (0 when not on probation).
	Quarantines   int `json:"quarantines,omitempty"`
	ProbationLeft int `json:"probation_left,omitempty"`
}

// Snapshot assembles the current metrics document.
func (rt *Router) Snapshot() Metrics {
	m := Metrics{
		UptimeSeconds:      time.Since(rt.start).Seconds(),
		VNodesPerShard:     ringVNodes,
		Forwarded:          rt.forwarded.Load(),
		Failed:             rt.failed.Load(),
		Retried:            rt.retried.Load(),
		NoShard:            rt.noShard.Load(),
		ListFanouts:        rt.listFanouts.Load(),
		ShardInflightLimit: rt.cfg.ShardInflight,
		Saturated:          rt.saturated.Load(),
		BreakerRefused:     rt.breakerRefused.Load(),
		WarmForwards: MetricsWarmForwards{
			Direct:     rt.warmDirect.Load(),
			Relocated:  rt.warmRelocated.Load(),
			Unresolved: rt.warmUnresolved.Load(),
		},
		Repair: MetricsRepair{
			Sweeps:   rt.repairSweeps.Load(),
			Repaired: rt.repairRepaired.Load(),
			Failed:   rt.repairFailed.Load(),
			Skipped:  rt.repairSkipped.Load(),
		},
		Migration: MetricsMigration{
			Passes:   rt.migrPasses.Load(),
			Migrated: rt.migrMigrated.Load(),
			Failed:   rt.migrFailed.Load(),
			Skipped:  rt.migrSkipped.Load(),
			Bytes:    rt.migrBytes.Load(),
		},
	}
	cs := rt.cnode.Snapshot()
	m.Cluster = MetricsCluster{
		ReplicaID:          cs.ReplicaID,
		Epoch:              cs.Epoch,
		Origin:             cs.Origin,
		Hash:               cs.Hash,
		Members:            cs.Members,
		GossipRounds:       cs.Rounds,
		GossipInSync:       cs.InSync,
		DocsAdopted:        cs.Adopted,
		Conflicts:          cs.Conflicts,
		DocsRejected:       cs.Rejected,
		Pushes:             cs.Pushes,
		PeerFailures:       cs.Failures,
		Applied:            rt.clusterApplies.Load(),
		LeaseHolder:        cs.Lease.Holder,
		LeaseEpoch:         cs.Lease.Epoch,
		LeaseExpiresUnixMs: cs.Lease.ExpiresUnixMs,
		LeaseSkips:         rt.leaseSkips.Load(),
		Peers:              cs.Peers,
	}
	for _, sh := range rt.shardList() {
		sh.mu.Lock()
		sm := ShardMetrics{
			Base:                sh.base,
			InstanceID:          sh.instance,
			Alive:               sh.alive,
			Ready:               sh.ready,
			ConsecutiveFailures: sh.consecFails,
			Forwarded:           sh.forwarded.Load(),
			Failed:              sh.failed.Load(),
			Retried:             sh.retried.Load(),
			Inflight:            sh.inflight.Load(),
			Rejected:            sh.rejected.Load(),
			QueueDepth:          sh.queueDepth,
			Running:             sh.running,
			DrainState:          sh.drain,
			Quarantines:         sh.quarantines,
			ProbationLeft:       sh.probationLeft,
		}
		sh.mu.Unlock()
		bst, opens, halfOpens, closes := sh.brk.snapshot()
		sm.BreakerState = bst.String()
		sm.BreakerOpens, sm.BreakerHalfOpens, sm.BreakerCloses = opens, halfOpens, closes
		m.Shards = append(m.Shards, sm)
	}
	m.RingShards = len(rt.shardsIn(shardState.inRing))
	m.UnhealthyShards = len(m.Shards) - m.RingShards
	return m
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.Snapshot())
}
