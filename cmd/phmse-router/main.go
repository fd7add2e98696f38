// Command phmse-router is the sharding tier for phmsed: a consistent-hash
// HTTP router that spreads estimation jobs across N daemon instances while
// keeping identical topologies — and warm-start re-solves — on the shard
// whose plan cache and posterior store already hold them.
//
// Usage:
//
//	phmse-router -addr :8090 -shards http://localhost:8081,http://localhost:8082
//
// The router speaks the same v1 API as a single phmsed, so phmsectl and the
// typed client point at it unchanged. Shard health is polled continuously;
// dead shards leave the ring and are readmitted when they answer again.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"phmse/internal/debugserve"
	"phmse/internal/router"
)

func main() {
	var (
		addr         = flag.String("addr", ":8090", "listen address")
		shards       = flag.String("shards", "", "comma-separated backend phmsed base URLs (required)")
		probeEvery   = flag.Duration("probe-interval", 2*time.Second, "shard health-poll period")
		probeTimeout = flag.Duration("probe-timeout", time.Second, "timeout for one health probe")
		inflight     = flag.Int("shard-inflight", 0, "max concurrent requests forwarded to one shard; saturated shards answer 429 (0 = unlimited)")
		adminToken   = flag.String("admin-token", "", "bearer token required on /admin/v1 and presented to shards during migration (empty leaves the admin plane open)")
		drainDL      = flag.Duration("drain-deadline", 30*time.Second, "default wait for a draining shard's in-flight jobs before migration proceeds")
		migrTimeout  = flag.Duration("migrate-timeout", 10*time.Second, "per-posterior transfer timeout during migration passes")
		repairEvery  = flag.Duration("repair-interval", 30*time.Second, "anti-entropy repair sweep period, jittered ±20% (negative disables the loop)")
		brkFailures  = flag.Int("breaker-failures", 3, "consecutive live-forward failures that open a shard's circuit breaker (-1 disables breaking)")
		brkCooldown  = flag.Duration("breaker-cooldown", 5*time.Second, "open-breaker cooldown before a half-open trial request is admitted")
		flapCount    = flag.Int("breaker-flap-count", 3, "ring readmissions within the flap window that quarantine a shard (-1 disables flap suppression)")
		flapWindow   = flag.Duration("breaker-flap-window", time.Minute, "sliding window for counting ring readmissions")
		auditLog     = flag.String("audit-log", "", "append-only JSONL file recording membership changes and repair sweeps (empty keeps the in-memory tail only)")
		replicaID    = flag.String("replica-id", "", "stable name of this router replica in the replicated membership document (empty mints a random r-<hex> id)")
		peers        = flag.String("peers", "", "comma-separated base URLs of the other router replicas to gossip membership with (empty = single-router control plane)")
		gossipEvery  = flag.Duration("gossip-interval", time.Second, "anti-entropy membership exchange period between router replicas")
		leaseTTL     = flag.Duration("lease-ttl", 0, "repair-sweeper lease duration (0 = 3x the repair interval)")
		pprofAddr    = flag.String("pprof-addr", "", "listen address for net/http/pprof debug endpoints (empty disables)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "phmse-router: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	var bases []string
	for _, s := range strings.Split(*shards, ",") {
		if s = strings.TrimSpace(s); s != "" {
			bases = append(bases, s)
		}
	}
	var peerList []string
	for _, s := range strings.Split(*peers, ",") {
		if s = strings.TrimRight(strings.TrimSpace(s), "/"); s != "" {
			peerList = append(peerList, s)
		}
	}
	if len(bases) == 0 {
		fmt.Fprintln(os.Stderr, "phmse-router: -shards is required")
		flag.Usage()
		os.Exit(2)
	}

	if *inflight < 0 {
		fmt.Fprintln(os.Stderr, "phmse-router: -shard-inflight must be >= 0")
		flag.Usage()
		os.Exit(2)
	}
	debugserve.Start(*pprofAddr)
	rt, err := router.New(router.Config{
		Shards:          bases,
		ProbeInterval:   *probeEvery,
		ProbeTimeout:    *probeTimeout,
		ShardInflight:   *inflight,
		AdminToken:      *adminToken,
		DrainDeadline:   *drainDL,
		MigrateTimeout:  *migrTimeout,
		RepairInterval:  *repairEvery,
		BreakerFailures: *brkFailures,
		BreakerCooldown: *brkCooldown,
		FlapCount:       *flapCount,
		FlapWindow:      *flapWindow,
		AuditLog:        *auditLog,
		ReplicaID:       *replicaID,
		Peers:           peerList,
		GossipInterval:  *gossipEvery,
		LeaseTTL:        *leaseTTL,
	})
	if err != nil {
		log.Fatalf("phmse-router: %v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Settle the ring before accepting traffic so a shard that is down at
	// startup never receives the first submissions.
	probeCtx, cancel := context.WithTimeout(ctx, *probeTimeout+time.Second)
	rt.CheckNow(probeCtx)
	cancel()

	httpSrv := &http.Server{Addr: *addr, Handler: rt}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("phmse-router: serving on %s over %d shard(s), %d gossip peer(s)", *addr, len(bases), len(peerList))

	select {
	case err := <-errc:
		log.Fatalf("phmse-router: %v", err)
	case <-ctx.Done():
	}
	log.Printf("phmse-router: shutting down...")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("phmse-router: http shutdown: %v", err)
	}
	rt.Close()
	log.Printf("phmse-router: stopped")
}
