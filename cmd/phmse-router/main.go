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
	"io"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux, served only at -pprof-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"phmse/internal/router"
)

// options is the router's command line.
type options struct {
	addr, shards, peers, pprofAddr string
	cfg                            router.Config
}

// newFlagSet registers every phmse-router flag, bound to o.
func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("phmse-router", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", ":8090", "listen address")
	fs.StringVar(&o.shards, "shards", "", "comma-separated backend phmsed base URLs (required)")
	fs.DurationVar(&o.cfg.ProbeInterval, "probe-interval", 2*time.Second, "shard health-poll period (> 0)")
	fs.DurationVar(&o.cfg.RepairInterval, "repair-interval", 30*time.Second, "anti-entropy repair sweep period, jittered ±20% (negative disables the loop, 0 is refused)")
	fs.DurationVar(&o.cfg.GossipInterval, "gossip-interval", time.Second, "anti-entropy membership exchange period between router replicas (negative disables the loop, 0 is refused)")
	fs.StringVar(&o.cfg.AdminToken, "admin-token", "", "bearer token required on /admin/v1 and presented to shards during migration (empty leaves the admin plane open)")
	fs.StringVar(&o.cfg.AuditLog, "audit-log", "", "append-only JSONL file recording membership changes and repair sweeps (empty keeps the in-memory tail only)")
	fs.StringVar(&o.cfg.ReplicaID, "replica-id", "", "stable name of this router replica in the replicated membership document (empty mints a random r-<hex> id)")
	fs.StringVar(&o.peers, "peers", "", "comma-separated base URLs of the other router replicas to gossip membership with (empty = single-router control plane)")
	fs.IntVar(&o.cfg.ShardInflight, "shard-inflight", 0, "max concurrent requests forwarded to one shard; saturated shards answer 429 (0 = unlimited)")
	fs.StringVar(&o.pprofAddr, "pprof-addr", "", "listen address for net/http/pprof debug endpoints (empty disables)")
	return fs
}

// parseFlags parses args into options. A flag the router does not have, a
// stray argument or an invalid value is an error; main answers it with
// exit status 2.
func parseFlags(args []string, out io.Writer) (options, error) {
	var o options
	fs := newFlagSet(&o)
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	for _, s := range strings.Split(o.shards, ",") {
		if s = strings.TrimSpace(s); s != "" {
			o.cfg.Shards = append(o.cfg.Shards, s)
		}
	}
	for _, s := range strings.Split(o.peers, ",") {
		if s = strings.TrimRight(strings.TrimSpace(s), "/"); s != "" {
			o.cfg.Peers = append(o.cfg.Peers, s)
		}
	}
	var err error
	switch {
	case fs.NArg() > 0:
		err = fmt.Errorf("unexpected arguments: %v", fs.Args())
	case len(o.cfg.Shards) == 0:
		err = errors.New("-shards is required")
	case o.cfg.ProbeInterval <= 0:
		err = errors.New("-probe-interval must be > 0")
	case o.cfg.RepairInterval == 0 || o.cfg.GossipInterval == 0:
		err = errors.New("-repair-interval and -gossip-interval must not be 0 (negative disables the loop)")
	case o.cfg.ShardInflight < 0:
		err = errors.New("-shard-inflight must be >= 0")
	}
	if err != nil {
		fmt.Fprintf(out, "phmse-router: %v\n", err)
		fs.Usage()
	}
	return o, err
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2)
	}
	if o.pprofAddr != "" {
		go func() { log.Printf("pprof: %v", http.ListenAndServe(o.pprofAddr, nil)) }()
	}
	rt, err := router.New(o.cfg)
	if err != nil {
		log.Fatalf("phmse-router: %v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Settle the ring before accepting traffic so a shard that is down at
	// startup never receives the first submissions.
	probeCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
	rt.CheckNow(probeCtx)
	cancel()

	httpSrv := &http.Server{Addr: o.addr, Handler: rt}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("phmse-router: serving on %s over %d shard(s), %d gossip peer(s)", o.addr, len(o.cfg.Shards), len(o.cfg.Peers))

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
