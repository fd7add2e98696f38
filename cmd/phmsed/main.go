// Command phmsed is the structure-estimation daemon: a long-lived HTTP
// server that accepts estimation problems in the JSON interchange format,
// runs them through an elastic solver-team scheduler sized to the machine
// (cheap jobs coalesce onto small teams running concurrently, expensive
// jobs get wide teams), caches decomposition and scheduling artifacts
// across repeated solves of the same topology, and supports per-job
// cancellation, timeouts, and graceful shutdown.
//
// Usage:
//
//	phmsed -addr :8080
//	phmsed -addr :8080 -max-procs 8 -max-team 4 -queue 64
//
// Submit and poll:
//
//	curl -s localhost:8080/v1/solve -d '{"problem": '"$(helixgen -bp 8)"'}'
//	curl -s localhost:8080/v1/jobs/job-000001
//	curl -s 'localhost:8080/v1/jobs/job-000001?wait=30000'   # answers when the job ends
//	curl -s localhost:8080/v1/jobs/job-000001/result
//	curl -s localhost:8080/metrics
//
// SIGINT/SIGTERM triggers a graceful drain: new submissions are rejected
// with 503 while accepted jobs run to completion (bounded by
// -drain-timeout, after which they are cancelled).
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
	"syscall"
	"time"

	"phmse/internal/debugserve"
	"phmse/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		maxProcs     = flag.Int("max-procs", 0, "total processor budget shared by all running solves (default GOMAXPROCS)")
		minTeam      = flag.Int("min-team", 0, "smallest processor team a solve runs on (default 1)")
		maxTeam      = flag.Int("max-team", 0, "widest processor team a single solve may get (default max-procs)")
		queue        = flag.Int("queue", 32, "bounded job-queue depth (full queue rejects with 429)")
		pprofAddr    = flag.String("pprof-addr", "", "listen address for net/http/pprof debug endpoints (empty disables)")
		cacheSize    = flag.Int("plan-cache", 64, "plan cache entries (negative disables)")
		postMB       = flag.Int64("posterior-mb", 256, "posterior store budget in MiB for warm starts: 48n bytes per n-atom hierarchical job, 8·(3n)² more per flat job (<= 0 disables)")
		maxRetries   = flag.Int("max-retries", 2, "automatic re-solve attempts after a transient job failure (0 disables)")
		drainTimeout = flag.Duration("drain-timeout", time.Minute, "max wait for in-flight jobs on shutdown")
		instance     = flag.String("instance", "", "stable instance name; qualifies job ids for shard routing (letters, digits, - and _)")
		posteriorDir = flag.String("posterior-dir", "", "directory for posterior snapshots; reloaded on startup for warm starts across restarts")
		adminToken   = flag.String("admin-token", "", "bearer token required on posterior import/delete (PUT/DELETE /v1/posteriors); set to the router's -admin-token")
		transferIn   = flag.Int("transfer-inflight", 0, "max concurrent posterior imports; excess PUTs answer 429 with Retry-After (0 = unlimited)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "phmsed: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	if *maxProcs < 0 || *minTeam < 0 || *maxTeam < 0 ||
		*queue < 1 || *maxRetries < 0 || *drainTimeout <= 0 || *transferIn < 0 {
		fmt.Fprintln(os.Stderr, "phmsed: processor flags must be >= 0, -queue >= 1, -max-retries >= 0, -drain-timeout > 0, -transfer-inflight >= 0")
		flag.Usage()
		os.Exit(2)
	}
	if !validInstance(*instance) {
		fmt.Fprintf(os.Stderr, "phmsed: -instance %q must use only letters, digits, - and _\n", *instance)
		flag.Usage()
		os.Exit(2)
	}

	posteriorBytes := *postMB << 20
	if *postMB <= 0 {
		posteriorBytes = -1
	}
	retries := *maxRetries
	if retries == 0 {
		retries = -1 // Config: 0 keeps the default, negative disables
	}
	debugserve.Start(*pprofAddr)
	srv := server.New(server.Config{
		MaxProcs:         *maxProcs,
		MinTeam:          *minTeam,
		MaxTeam:          *maxTeam,
		QueueDepth:       *queue,
		CacheSize:        *cacheSize,
		PosteriorBytes:   posteriorBytes,
		MaxRetries:       retries,
		InstanceID:       *instance,
		PosteriorDir:     *posteriorDir,
		AdminToken:       *adminToken,
		TransferInflight: *transferIn,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("phmsed: serving on %s", *addr)

	select {
	case err := <-errc:
		log.Fatalf("phmsed: %v", err)
	case <-ctx.Done():
	}
	log.Printf("phmsed: draining (up to %v)...", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("phmsed: forced drain: %v", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("phmsed: http shutdown: %v", err)
	}
	log.Printf("phmsed: stopped")
}

// validInstance accepts names safe to embed in job ids and snapshot file
// names. The empty name is valid: it disables shard qualification.
func validInstance(s string) bool {
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return false
		}
	}
	return true
}
