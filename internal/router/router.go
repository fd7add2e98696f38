// Package router implements phmse-router, the consistent-hash sharding
// tier that scales phmsed horizontally: a thin HTTP layer fronting N
// daemon instances. It mirrors the paper's inter-node parallel axis —
// disjoint subtrees solved on disjoint processors — lifted one level up:
// disjoint topologies served by disjoint daemons.
//
// Routing rules:
//
//   - POST /v1/solve hashes the problem's topology (encode.TopologyHash)
//     onto a consistent-hash ring of healthy shards, so identical
//     topologies always land on the same shard and its plan cache and
//     posterior store stay hot. Warm-started submissions instead follow
//     the referenced job id's instance qualifier to the shard retaining
//     the posterior, and locate the holder by index lookup only when that
//     shard disowns it (forwardWarm).
//   - Job endpoints (/v1/jobs/{id}[...]) follow the id's instance
//     qualifier; ids the router cannot attribute are broadcast to the
//     live shards (exactly one shard owns any real job).
//   - GET /v1/jobs fans out to every live shard and merges the pages in
//     submission-time order, with a composite cursor that preserves each
//     shard's own pagination position.
//
// Shard health is tracked by probing (health.go) and by live forward
// outcomes (breaker.go). Forwarding keeps the client.RetryPolicy
// semantics: backpressure responses pass through with Retry-After intact,
// transport failures and 5xx responses are retried (and failed over) only
// where a replay is safe. When no shard can serve a request the router
// answers 503 with the envelope code no_shard.
//
// Cluster membership is elastic: the /admin/v1 control plane (admin.go)
// edits the replicated membership document (cluster.go), the only writer
// of the shard set, and every change runs the placement pass (repair.go)
// so warm-start state follows its keys to their new owners.
//
// "May this shard take this request / this posterior?" is answered in one
// place each: shard.state derives one state per shard and the in-ring,
// askable and placeable predicates read it; every live forward is one
// attempt, and handlers are policy over its outcome.
package router

import (
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"phmse/internal/client"
	"phmse/internal/cluster"
	"phmse/internal/encode"
)

// maxRequestBody bounds a forwarded solve request body, matching the
// daemon's own limit.
const maxRequestBody = 64 << 20

const (
	// forwardIdleConns is the idle router→shard connections the default
	// forwarding client keeps per shard. Every parked status wait holds one
	// connection, so N concurrent waiters need N of them; at the
	// DefaultTransport's two, all but two would be closed on release and
	// redialed for the next job.
	forwardIdleConns = 64
	// ringVNodes is the number of virtual nodes each shard contributes to
	// the ring. Every router replica must use the same value or two
	// routers compute two rings, so it is not configurable.
	ringVNodes = 64
	// maxProbeBackoff caps the exponential probe backoff of an unreachable
	// shard (never below the probe interval itself).
	maxProbeBackoff = 30 * time.Second
	// placeConcurrency bounds the posterior transfers one placement pass
	// runs at once, so a wide pass cannot dogpile the cluster.
	placeConcurrency = 2
)

// Config sizes the router. The zero value of every field selects a
// default; Shards is required.
type Config struct {
	// Shards are the backend phmsed base URLs (e.g. "http://host:8080").
	Shards []string
	// ProbeInterval is the per-shard health-poll period (default 2s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe (default 1s).
	ProbeTimeout time.Duration
	// ShardInflight caps the requests concurrently forwarded to any one
	// shard — a counting semaphore per backend, so a slow daemon
	// accumulates bounded load instead of every queued connection the
	// router holds. A submission finding all its replicas saturated, or a
	// job request whose owning shard is saturated, is answered 429 with a
	// Retry-After hint. 0 (the default) disables the limit.
	ShardInflight int
	// Retry shapes forwarded-request retries with client.RetryPolicy
	// semantics: transport failures and 5xx responses are retried for
	// idempotent GETs only, with jittered exponential backoff.
	Retry client.RetryPolicy
	// AdminToken, when set, gates the /admin/v1 control plane behind
	// "Authorization: Bearer <token>" and is presented by the router on
	// the daemons' posterior-transfer endpoints — deploy one token
	// cluster-wide. Empty leaves the admin API open (the test default).
	AdminToken string
	// DrainDeadline bounds how long a graceful drain waits for a shard's
	// in-flight jobs before migrating and ejecting anyway (default 30s).
	// Per-request ?deadline_ms= overrides it.
	DrainDeadline time.Duration
	// MigrateTimeout bounds one posterior transfer: export + import +
	// delete (default 10s).
	MigrateTimeout time.Duration

	// RepairInterval is the anti-entropy sweep period (default 30s;
	// negative disables the loop): each sweep runs the placement pass over
	// every placeable shard (repair.go). The period is jittered ±20% so
	// multiple routers do not sweep in lockstep, and an admin pass that
	// reported failures kicks an immediate sweep.
	RepairInterval time.Duration

	// BreakerFailures is the consecutive live-forward failures (transport
	// errors or 5xx responses) that open a shard's circuit breaker,
	// fencing it out of the ring (default 3; <= -1 disables the breaker,
	// 0 selects the default).
	BreakerFailures int
	// BreakerCooldown is how long an open breaker waits before
	// half-opening to admit one trial request (default 5s).
	BreakerCooldown time.Duration
	// FlapCount quarantines a shard readmitted to the ring this many
	// times within FlapWindow: instead of the single-success readmission,
	// it must stay healthy through an escalating probation of consecutive
	// good probes (2, 4, 8, … doubling per quarantine, capped at 32).
	// Default 3; <= -1 disables flap suppression, 0 selects the default.
	FlapCount int
	// FlapWindow is the sliding window over ring readmissions that
	// defines flapping (default 60s).
	FlapWindow time.Duration

	// AuditLog, when set, appends one JSON line per admin membership
	// change (and per effective repair sweep) to this file. The last
	// entries are always also retained in memory and served at
	// GET /admin/v1/audit regardless.
	AuditLog string

	// ReplicaID names this router replica in the replicated membership
	// document: the Origin stamp on its mutations, the holder of its
	// repair leases, and the `from` of its gossip exchanges. Default: a
	// random "r-<hex>" id minted at startup — fine for ephemeral
	// replicas, but deploy stable ids so audit origins survive restarts.
	ReplicaID string
	// Peers lists the other router replicas' base URLs
	// (e.g. "http://router-b:8090"). Replicas gossip the membership
	// document over POST /cluster/v1/state: an /admin/v1 mutation at any
	// replica propagates to every peer within one gossip round. Empty
	// (the default) runs the classic single-router control plane.
	Peers []string
	// GossipInterval is the anti-entropy exchange period (default 1s,
	// jittered; negative disables the background loop — exchanges still
	// run via GossipNow and inbound pushes, the test mode). Admin
	// mutations additionally kick an immediate round.
	GossipInterval time.Duration
	// LeaseTTL is the repair-sweeper lease duration (default 3×
	// RepairInterval): the window during which the lease-holding replica
	// owns the anti-entropy posterior sweep and every peer skips its
	// own. A holder renews on each sweep; a crashed holder's lease
	// simply expires.
	LeaseTTL time.Duration

	// HTTPClient overrides the forwarding/probing client.
	HTTPClient *http.Client
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.Retry.MaxAttempts <= 0 {
		c.Retry.MaxAttempts = 3
	}
	if c.Retry.BaseDelay <= 0 {
		c.Retry.BaseDelay = 25 * time.Millisecond
	}
	if c.Retry.MaxDelay <= 0 {
		c.Retry.MaxDelay = time.Second
	}
	if c.DrainDeadline <= 0 {
		c.DrainDeadline = 30 * time.Second
	}
	if c.MigrateTimeout <= 0 {
		c.MigrateTimeout = 10 * time.Second
	}
	if c.RepairInterval == 0 {
		c.RepairInterval = 30 * time.Second
	}
	if c.BreakerFailures == 0 {
		c.BreakerFailures = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.FlapCount == 0 {
		c.FlapCount = 3
	}
	if c.FlapWindow <= 0 {
		c.FlapWindow = time.Minute
	}
	if c.ReplicaID == "" {
		var b [4]byte
		crand.Read(b[:]) //nolint:errcheck // never fails on supported platforms
		c.ReplicaID = "r-" + hex.EncodeToString(b[:])
	}
	if c.LeaseTTL <= 0 {
		if c.RepairInterval > 0 {
			c.LeaseTTL = 3 * c.RepairInterval
		} else {
			c.LeaseTTL = 90 * time.Second
		}
	}
	if c.HTTPClient == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = forwardIdleConns
		c.HTTPClient = &http.Client{Transport: tr}
	}
	return c
}

// shard is one backend daemon and its routing state. name (the base URL)
// is the stable ring identity; instance is the daemon's self-reported id,
// learned from health probes and response headers, which maps
// shard-qualified job ids back to their owner.
type shard struct {
	name string
	base string

	mu          sync.Mutex
	alive       bool // /healthz answered 200 at last contact
	ready       bool // /readyz answered 200 and no probation is owed
	instance    string
	consecFails int
	nextProbe   time.Time
	// drain mirrors the member's fence in the membership document: "",
	// "draining" or "drained". removed latches once the document drops the
	// member, so a stale probe or relay still holding the pointer never
	// reads it as usable. Both are written only by reconcileMembership.
	drain   string
	removed bool
	// queueDepth and running mirror the shard's last /readyz document.
	queueDepth int
	running    int
	// Flap suppression (health.go): readmits holds the probe readmission
	// times inside the flap window, quarantines the escalation level,
	// probationLeft the consecutive good probes still owed (0 = none).
	readmits      []time.Time
	quarantines   int
	probationLeft int

	// brk is the shard's live-forward circuit breaker (its own lock).
	brk breaker

	forwarded, failed, retried atomic.Int64
	// inflight is the counting semaphore behind Config.ShardInflight;
	// rejected counts requests turned away at this shard's limit.
	inflight, rejected atomic.Int64
}

// shardState is the one derived answer to "what may this shard do", in
// decreasing order of usability so each predicate is a threshold.
type shardState int

const (
	stateServing shardState = iota // owns ring arcs
	stateUnready                   // alive, but /readyz refuses or a flap probation is owed
	stateOpen                      // alive, but live forwards tripped the breaker
	stateFenced                    // alive, held out by a drain fence in the document
	stateDown                      // /healthz not answering
	stateRemoved                   // no longer a member
)

// state derives the shard's state from the document fence (drain,
// removed), the prober (alive, ready, probationLeft) and the breaker — the
// only place those are read to decide usability. The transition rules
// that write them live in health.go and breaker.go.
func (sh *shard) state() shardState {
	sh.mu.Lock()
	removed, alive, fenced := sh.removed, sh.alive, sh.drain != ""
	ready := sh.ready && sh.probationLeft == 0
	sh.mu.Unlock()
	switch {
	case removed:
		return stateRemoved
	case !alive:
		return stateDown
	case fenced:
		return stateFenced
	case sh.brk.isOpen(): // half-open stays in the ring: the trial needs traffic
		return stateOpen
	case !ready:
		return stateUnready
	}
	return stateServing
}

// inRing: the shard owns ring arcs and takes new submissions.
func (s shardState) inRing() bool { return s == stateServing }

// placeable: the shard may hold posteriors — a sweep source, a transfer
// destination. Unready and breaker-open shards still answer the transfer
// endpoints (not live v1 traffic); a fenced one must gain nothing.
func (s shardState) placeable() bool { return s <= stateOpen }

// askable: the shard answers, so broadcasts, listings and index queries
// include it — a fenced shard's job records stay reachable.
func (s shardState) askable() bool { return s <= stateFenced }

// view is one immutable generation of the routing tables.
type view struct {
	shards     []*shard
	byInstance map[string]*shard
	ring       *ring
}

// Router is the phmse-router HTTP handler plus its health prober. Create
// with New; call Close to stop probing.
type Router struct {
	cfg   Config
	mux   *http.ServeMux
	hc    *http.Client
	start time.Time
	stop  chan struct{}
	done  chan struct{}

	// view is the published routing generation (one atomic load per
	// reader); rebuildMu serializes rebuilds from state snapshot through
	// publish, so no transition can publish a view built from a stale one.
	view      atomic.Pointer[view]
	rebuildMu sync.Mutex

	// adminMu serializes membership changes and placement passes, which
	// would otherwise race on the ring generation a posterior moves under.
	adminMu sync.Mutex

	forwarded, failed, retried atomic.Int64
	noShard, listFanouts       atomic.Int64
	saturated, breakerRefused  atomic.Int64
	// Warm-start placement (forwardWarm): forwards sent straight to the
	// shard the job id names, forwards re-sent to a located holder, and
	// references no askable shard holds.
	warmDirect, warmRelocated, warmUnresolved atomic.Int64

	migrPasses, migrMigrated, migrFailed, migrSkipped, migrBytes atomic.Int64

	// repairKick wakes the sweeper early after an admin placement pass
	// reported failures (repair.go).
	repairKick chan struct{}
	repairDone chan struct{}

	repairSweeps, repairRepaired, repairFailed, repairSkipped atomic.Int64

	// cnode is the replicated membership document and its gossip loop
	// (cluster.go). clusterApplies counts peer documents that changed
	// membership here; leaseSkips counts repair ticks skipped because a
	// peer held the sweeper lease.
	cnode                      *cluster.Node
	clusterApplies, leaseSkips atomic.Int64

	// aud is the admin-plane audit log (audit.go); nil only before New
	// finishes.
	aud *auditor
}

// New builds a router over the configured shards and starts its health
// prober. Shards start optimistically in the ring; the first failed probe
// or forward ejects the dead ones.
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("router: no shards configured")
	}
	cfg = cfg.withDefaults()
	rt := &Router{
		cfg:        cfg,
		mux:        http.NewServeMux(),
		hc:         cfg.HTTPClient,
		start:      time.Now(),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		repairKick: make(chan struct{}, 1),
		repairDone: make(chan struct{}),
	}
	// The epoch-0 bootstrap document: replicas booted from identical
	// -shards flags stamp identical documents and are in sync before the
	// first exchange.
	var doc encode.ClusterDoc
	seen := make(map[string]bool, len(cfg.Shards))
	for _, base := range cfg.Shards {
		base = strings.TrimRight(base, "/")
		if base == "" || seen[base] {
			return nil, fmt.Errorf("router: empty or duplicate shard %q", base)
		}
		seen[base] = true
		doc.Members = append(doc.Members, encode.ClusterMember{Base: base})
	}
	aud, err := newAuditor(cfg.AuditLog)
	if err != nil {
		return nil, fmt.Errorf("router: opening audit log: %w", err)
	}
	rt.aud = aud
	rt.view.Store(&view{ring: buildRing(nil, ringVNodes)})
	rt.reconcileMembership(context.Background(), doc, true)
	rt.cnode = cluster.New(cluster.Config{
		ReplicaID:  cfg.ReplicaID,
		Peers:      cfg.Peers,
		Interval:   cfg.GossipInterval,
		AuthToken:  cfg.AdminToken,
		HTTPClient: cfg.HTTPClient,
		OnAdopt:    rt.onClusterAdopt,
		OnConflict: rt.onClusterConflict,
		Logf:       log.Printf,
	}, doc)

	rt.mux.HandleFunc("POST /v1/solve", rt.handleSolve)
	rt.mux.HandleFunc("GET /v1/jobs", rt.handleList)
	rt.mux.HandleFunc("GET /v1/jobs/{id}", rt.handleJob)
	rt.mux.HandleFunc("GET /v1/jobs/{id}/result", rt.handleJob)
	rt.mux.HandleFunc("GET /v1/jobs/{id}/posterior", rt.handleJob)
	rt.mux.HandleFunc("POST /v1/jobs/{id}/cancel", rt.handleJob)
	rt.mux.HandleFunc("DELETE /v1/jobs/{id}", rt.handleJob)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealth)
	rt.mux.HandleFunc("GET /readyz", rt.handleReady)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.mux.HandleFunc("GET /admin/v1/shards", rt.adminAuth(rt.handleAdminShards))
	rt.mux.HandleFunc("POST /admin/v1/shards", rt.adminAuth(rt.handleAdminAddShard))
	rt.mux.HandleFunc("DELETE /admin/v1/shards/{name}", rt.adminAuth(rt.handleAdminRetire(true)))
	rt.mux.HandleFunc("POST /admin/v1/shards/{name}/drain", rt.adminAuth(rt.handleAdminRetire(false)))
	rt.mux.HandleFunc("POST /admin/v1/repair", rt.adminAuth(rt.handleAdminRepair))
	rt.mux.HandleFunc("GET /admin/v1/audit", rt.adminAuth(rt.handleAdminAudit))
	rt.mux.HandleFunc("GET /cluster/v1/state", rt.adminAuth(rt.handleClusterState))
	rt.mux.HandleFunc("POST /cluster/v1/state", rt.adminAuth(rt.handleClusterExchange))

	go rt.probeLoop()
	go rt.repairLoop()
	rt.cnode.Start()
	return rt, nil
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.mux.ServeHTTP(w, r)
}

// Close stops the health prober, the repair sweeper, and the audit log.
// In-flight forwards are unaffected.
func (rt *Router) Close() {
	select {
	case <-rt.stop:
	default:
		close(rt.stop)
	}
	<-rt.done
	<-rt.repairDone
	rt.cnode.Close()
	rt.aud.close()
}

// rebuild publishes a new view: the given member list (nil keeps the
// current one), the instance table from each member's learned id, and the
// ring over the in-ring members. Every transition updates its shard
// before calling here, so whichever rebuild runs last publishes a view
// reflecting all earlier transitions. A shard the document dropped is in
// no member list, so a stale probe or relay cannot resurrect it.
func (rt *Router) rebuild(members []*shard) {
	rt.rebuildMu.Lock()
	defer rt.rebuildMu.Unlock()
	if members == nil {
		members = rt.view.Load().shards
	}
	v := &view{shards: members, byInstance: make(map[string]*shard, len(members))}
	var inRing []*shard
	for _, sh := range members {
		sh.mu.Lock()
		instance := sh.instance
		sh.mu.Unlock()
		if instance != "" {
			v.byInstance[instance] = sh
		}
		if sh.state().inRing() {
			inRing = append(inRing, sh)
		}
	}
	v.ring = buildRing(inRing, ringVNodes)
	rt.view.Store(v)
}

// shardList returns the current members: an immutable view's slice, to
// iterate freely but never modify.
func (rt *Router) shardList() []*shard { return rt.view.Load().shards }

// shardsIn returns the members whose state satisfies the predicate.
func (rt *Router) shardsIn(pred func(shardState) bool) []*shard {
	var out []*shard
	for _, sh := range rt.shardList() {
		if pred(sh.state()) {
			out = append(out, sh)
		}
	}
	return out
}

// shardsByLoad returns the askable members least-loaded first, by the
// queue_depth+running gauges the prober collects. Broadcast lookups (an
// unattributable job id, a posterior location fan-out) ask in this order:
// the answer is equally likely anywhere, so the idle shards go first. The
// sort is stable: equally-loaded shards keep the membership order.
func (rt *Router) shardsByLoad() []*shard {
	shards := rt.shardsIn(shardState.askable)
	load := make(map[*shard]int, len(shards))
	for _, sh := range shards {
		sh.mu.Lock()
		load[sh] = sh.queueDepth + sh.running
		sh.mu.Unlock()
	}
	sort.SliceStable(shards, func(i, j int) bool { return load[shards[i]] < load[shards[j]] })
	return shards
}

// currentRing returns the published ring generation.
func (rt *Router) currentRing() *ring { return rt.view.Load().ring }

// replicasFor returns the failover order of a routing key: every in-ring
// shard, nearest ring arc first.
func (rt *Router) replicasFor(key string) []*shard {
	v := rt.view.Load()
	return v.ring.replicas(key, len(v.shards))
}

// shardForJob maps a shard-qualified job id to the shard whose instance
// minted it, nil when the id is unqualified or the instance is unknown.
func (rt *Router) shardForJob(id string) *shard {
	return rt.view.Load().byInstance[encode.JobInstance(id)]
}

// learnInstance records a shard's self-reported instance id, keeping the
// instance → shard table current across restarts that change identity.
func (rt *Router) learnInstance(instance string, sh *shard) {
	sh.mu.Lock()
	changed := sh.instance != instance
	sh.instance = instance
	sh.mu.Unlock()
	if changed {
		rt.rebuild(nil)
	}
}

func writeError(w http.ResponseWriter, httpStatus int, code, message string) {
	writeJSON(w, httpStatus, encode.ErrorEnvelope{Error: encode.ErrorBody{Code: code, Message: message}})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v) //nolint:errcheck
}

func (rt *Router) writeNoShard(w http.ResponseWriter) {
	rt.noShard.Add(1)
	writeError(w, http.StatusServiceUnavailable, encode.CodeNoShard, "no healthy shard available")
}

// writeSaturated answers a request the in-flight limiter refused: the
// same 429 + Retry-After contract as a daemon's full queue, so client
// retry policies treat both backpressure tiers identically.
func (rt *Router) writeSaturated(w http.ResponseWriter, message string) {
	rt.saturated.Add(1)
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusTooManyRequests, encode.CodeQueueFull, message)
}

// writeBreakerRefused answers a directed request whose owning shard's
// breaker refused it: the shard exists and the job may well live there,
// so the honest answer is "temporarily unavailable, retry" — not 404.
func (rt *Router) writeBreakerRefused(w http.ResponseWriter, shardName string) {
	rt.breakerRefused.Add(1)
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, encode.CodeNoShard,
		"shard "+shardName+" circuit open; retry")
}

type outcome int // of one forward attempt

const (
	answered  outcome = iota // the shard produced a response
	refused                  // breaker open, or its half-open trial slot taken: nothing sent
	saturated                // shard at its in-flight limit: nothing sent
	undialed                 // the dial failed: no backend saw a byte, so a replay is safe for any method
	broken                   // transport failure after the request left: ambiguous
)

// parkedWait reports whether r is a status long-poll, GET
// /v1/jobs/{id}?wait=: a connection held until the job finishes, not work
// queued at the daemon, so it takes no in-flight slot.
func parkedWait(r *http.Request) bool {
	return r.Method == http.MethodGet && r.URL.Path == "/v1/jobs/"+r.PathValue("id") && r.URL.Query().Has("wait")
}

// attempt is the one live forward: ask the shard's breaker, reserve an
// in-flight slot (unless the request is a parked wait), send, feed the
// counters and the breaker (transport errors and 5xx count against it,
// 429/4xx do not), eject the shard on a transport error without waiting
// for the next probe, release the slot. A send that fails because the
// caller went away — an abandoned wait, a client timeout — says nothing
// about the shard and feeds neither.
// An answered response is handed to use while the slot is held, then
// drained and closed. retry marks a replay of a request the breaker
// already admitted: it is not asked again, so a request's own failures
// cannot refuse its retries (and a retry that succeeds closes a breaker
// they opened). Callers are policy over the outcome: which ones fail
// over, which become 429/503/502/404.
func (rt *Router) attempt(r *http.Request, sh *shard, pathq string, body []byte, retry bool, use func(*http.Response)) (outcome, error) {
	breaking := rt.cfg.BreakerFailures > 0
	trial := false
	if breaking && !retry {
		ok, t := sh.brk.allow(time.Now(), rt.cfg.BreakerCooldown)
		if !ok {
			return refused, nil
		}
		trial = t
	}
	if limit := int64(rt.cfg.ShardInflight); limit > 0 && !parkedWait(r) {
		if sh.inflight.Add(1) > limit {
			sh.inflight.Add(-1)
			sh.rejected.Add(1)
			sh.brk.cancel(trial) // the trial never produced an outcome
			return saturated, nil
		}
		defer sh.inflight.Add(-1)
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, sh.base+pathq, rd)
	if err != nil {
		sh.brk.cancel(trial)
		return broken, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := rt.hc.Do(req)
	if err != nil && r.Context().Err() != nil {
		sh.brk.cancel(trial)
		return broken, err
	}
	if breaking && sh.brk.record(err == nil && resp.StatusCode < 500, trial, rt.cfg.BreakerFailures, time.Now()) {
		rt.rebuild(nil)
	}
	if err != nil {
		rt.failed.Add(1)
		sh.failed.Add(1)
		rt.eject(sh)
		if dialFailure(err) {
			return undialed, err
		}
		return broken, err
	}
	defer discard(resp)
	if instance := resp.Header.Get("X-Phmsed-Instance"); instance != "" {
		rt.learnInstance(instance, sh)
	}
	use(resp)
	return answered, nil
}

// relay copies a backend response to the caller: status, the headers the
// v1 API defines, and the body.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response, sh *shard) {
	for _, h := range []string{"Content-Type", "Retry-After", "X-Phmsed-Instance"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body) //nolint:errcheck
	rt.forwarded.Add(1)
	sh.forwarded.Add(1)
}

// discard drains and closes a response.
func discard(resp *http.Response) {
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
}

// dialFailure reports whether a transport error happened before the
// request left the router (the dial itself failed).
func dialFailure(err error) bool {
	var oe *net.OpError
	return errors.As(err, &oe) && oe.Op == "dial"
}

var errRetryForward = errors.New("router: shard answered 5xx")

// forwardTo relays a request to one specific shard under the retry
// policy. Idempotent GETs retry through transport failures and 5xx
// responses; other methods get exactly one attempt — a connection cut
// mid-POST may have already enqueued the job. Reports whether a response
// was written, including the 429 of a saturated shard and the 503 of a
// refusing breaker.
func (rt *Router) forwardTo(w http.ResponseWriter, r *http.Request, sh *shard, pathq string, body []byte) bool {
	idempotent := r.Method == http.MethodGet
	wrote := false
	rt.cfg.Retry.Do(r.Context(), func(i int) error { //nolint:errcheck // wrote carries the result
		if i > 0 {
			rt.retried.Add(1)
			sh.retried.Add(1)
		}
		final := !idempotent || i+1 >= rt.cfg.Retry.MaxAttempts
		out, err := rt.attempt(r, sh, pathq, body, i > 0, func(resp *http.Response) {
			if resp.StatusCode < 500 || final {
				rt.relay(w, resp, sh)
				wrote = true
			}
		})
		switch {
		case out == refused:
			rt.writeBreakerRefused(w, sh.name)
			wrote = true
		case out == saturated:
			rt.writeSaturated(w, fmt.Sprintf("shard %s at its in-flight limit", sh.name))
			wrote = true
		case out == answered && !wrote:
			return errRetryForward
		}
		return err
	}, func(error) bool { return idempotent })
	return wrote
}

// handleSolve routes a submission: one routing-only pass over the body
// (encode.SolveRouting — the shard is the validator), then the raw body is
// forwarded unchanged.
func (rt *Router) handleSolve(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, encode.CodeBadRequest, "reading request: "+err.Error())
		return
	}
	key, warmRef, err := encode.SolveRouting(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, encode.CodeBadRequest, err.Error())
		return
	}

	if warmRef != nil && rt.forwardWarm(w, r, warmRef.Job, body) {
		return
	}

	// Ring replicas are the failover order. A POST fails over only on dial
	// failures — the request never left, so no shard could have enqueued
	// it; any later transport error is ambiguous and surfaces as 502. A
	// saturated or breaker-refused replica is skipped like a dead one; a
	// submission finding every replica saturated gets the 429. Backend
	// responses (including 429 with its Retry-After) relay verbatim.
	sawSaturated := false
	for _, sh := range rt.replicasFor(key) {
		out, err := rt.attempt(r, sh, "/v1/solve", body, false,
			func(resp *http.Response) { rt.relay(w, resp, sh) })
		switch out {
		case answered:
			return
		case saturated:
			sawSaturated = true
		case undialed:
			rt.retried.Add(1)
			sh.retried.Add(1)
		case broken:
			writeError(w, http.StatusBadGateway, encode.CodeInternal,
				fmt.Sprintf("forwarding solve to %s: %v", sh.name, err))
			return
		}
	}
	if sawSaturated {
		rt.writeSaturated(w, "all replicas at their in-flight limit")
		return
	}
	rt.writeNoShard(w)
}

// forwardWarm places a warm-started submission on the shard retaining the
// referenced posterior and reports whether it answered the request. The
// job id's instance qualifier names the shard that minted the posterior,
// and nearly always still holds it, so the submission goes straight there;
// only when that shard answers that it has no such posterior (not_found /
// no_result — it rejects before any side effect, so a replay is safe) are
// the askable shards' indexes queried for the holder a placement pass moved
// it to. Every other answer, topology_mismatch included, relays verbatim.
// A reference nobody holds relays the first shard's rejection; one that
// named no usable shard to begin with falls through to ring routing
// (false), where identical topologies meet the posterior's shard anyway
// and a wrong shard answers an honest 404/409.
func (rt *Router) forwardWarm(w http.ResponseWriter, r *http.Request, job string, body []byte) bool {
	var miss *bufferedResponse
	// A fenced shard takes no new work: skip to the index lookup, which
	// answers 503 draining if it still holds the posterior.
	if sh := rt.shardForJob(job); sh != nil && sh.state() != stateFenced {
		rt.warmDirect.Add(1)
		first := &bufferedResponse{header: http.Header{}}
		if !rt.forwardTo(first, r, sh, "/v1/solve", body) {
			rt.writeNoShard(w)
			return true
		}
		if !first.missedPosterior() {
			first.writeTo(w)
			return true
		}
		miss = first
	}
	holder := rt.locatePosterior(r.Context(), job)
	switch {
	case holder == nil:
		rt.warmUnresolved.Add(1)
		if miss == nil {
			return false
		}
		miss.writeTo(w)
	case holder.state() == stateFenced:
		writeError(w, http.StatusServiceUnavailable, encode.CodeDraining,
			fmt.Sprintf("shard %s is draining; its posteriors are migrating — retry", holder.name))
	default:
		rt.warmRelocated.Add(1)
		if !rt.forwardTo(w, r, holder, "/v1/solve", body) {
			rt.writeNoShard(w)
		}
	}
	return true
}

// bufferedResponse holds a shard's answer to a warm-start forward until
// forwardWarm has decided whether to relay it or try elsewhere.
type bufferedResponse struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (b *bufferedResponse) Header() http.Header         { return b.header }
func (b *bufferedResponse) WriteHeader(status int)      { b.status = status }
func (b *bufferedResponse) Write(p []byte) (int, error) { return b.body.Write(p) }

// missedPosterior reports whether the shard rejected the submission
// because it does not hold the referenced posterior.
func (b *bufferedResponse) missedPosterior() bool {
	if b.status != http.StatusNotFound && b.status != http.StatusConflict {
		return false
	}
	var env encode.ErrorEnvelope
	return json.Unmarshal(b.body.Bytes(), &env) == nil &&
		(env.Error.Code == encode.CodeNotFound || env.Error.Code == encode.CodeNoResult)
}

func (b *bufferedResponse) writeTo(w http.ResponseWriter) {
	for k, v := range b.header {
		w.Header()[k] = v
	}
	w.WriteHeader(b.status)
	w.Write(b.body.Bytes()) //nolint:errcheck
}

// handleJob forwards a job-targeted request to its owning shard. Ids the
// router cannot attribute (unqualified, or an instance not yet learned)
// are broadcast to the askable shards: exactly one shard owns any real
// job, everyone else answers 404.
func (rt *Router) handleJob(w http.ResponseWriter, r *http.Request) {
	pathq := r.URL.Path
	if r.URL.RawQuery != "" {
		pathq += "?" + r.URL.RawQuery
	}
	if sh := rt.shardForJob(r.PathValue("id")); sh != nil {
		if !rt.forwardTo(w, r, sh, pathq, nil) {
			rt.writeNoShard(w)
		}
		return
	}
	relayed, sawNotFound, sawBusy := false, false, false
	for _, sh := range rt.shardsByLoad() {
		out, _ := rt.attempt(r, sh, pathq, nil, false, func(resp *http.Response) {
			if resp.StatusCode == http.StatusNotFound {
				sawNotFound = true
				return
			}
			rt.relay(w, resp, sh)
			relayed = true
		})
		if relayed {
			return
		}
		sawBusy = sawBusy || out == refused || out == saturated
	}
	// A saturated or breaker-refused shard was skipped, so the job may
	// simply live where the router could not look: tell the client to
	// retry, not that the job does not exist.
	if sawBusy {
		rt.writeSaturated(w, "shard at its in-flight limit; retry")
		return
	}
	if sawNotFound {
		writeError(w, http.StatusNotFound, encode.CodeNotFound, "unknown job")
		return
	}
	rt.writeNoShard(w)
}

// RouterHealth is the body of the router's /healthz and /readyz.
type RouterHealth struct {
	Status      string `json:"status"`
	Shards      int    `json:"shards"`
	ReadyShards int    `json:"ready_shards"`
}

// health counts the members and the in-ring ones.
func (rt *Router) health() RouterHealth {
	return RouterHealth{Status: "ok", Shards: len(rt.shardList()), ReadyShards: len(rt.shardsIn(shardState.inRing))}
}

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.health())
}

// handleReady reports whether the router can currently place new work:
// at least one shard in the ring.
func (rt *Router) handleReady(w http.ResponseWriter, r *http.Request) {
	body := rt.health()
	if body.ReadyShards == 0 {
		body.Status = "no_shard"
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}
