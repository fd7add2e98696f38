// Command phmsed is the structure-estimation daemon: a long-lived HTTP
// server that accepts estimation problems in the JSON interchange format,
// admits them one at a time, in submission order, against one processor
// budget sized to the machine (each job's team is sized from its estimated
// work: cheap jobs run concurrently on one-processor teams, expensive jobs
// get wide teams, shrunk to what is free under contention), caches
// decomposition and scheduling artifacts across repeated solves of the same
// topology, and supports per-job cancellation, timeouts, and graceful
// shutdown.
//
// Usage:
//
//	phmsed -addr :8080
//	phmsed -addr :8080 -max-procs 8 -queue 64
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
	"io"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux, served only at -pprof-addr
	"os"
	"os/signal"
	"syscall"
	"time"

	"phmse/internal/server"
)

// options is the daemon's command line.
type options struct {
	addr, pprofAddr string
	drainTimeout    time.Duration
	posteriorMB     int64
	cfg             server.Config
}

// newFlagSet registers every phmsed flag, bound to o.
func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("phmsed", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.IntVar(&o.cfg.MaxProcs, "max-procs", 0, "total processor budget shared by all running solves (default GOMAXPROCS)")
	fs.IntVar(&o.cfg.QueueDepth, "queue", 32, "bounded job-queue depth (full queue rejects with 429)")
	fs.StringVar(&o.pprofAddr, "pprof-addr", "", "listen address for net/http/pprof debug endpoints (empty disables)")
	fs.IntVar(&o.cfg.CacheSize, "plan-cache", 64, "plan cache entries (<= 0 disables)")
	fs.Int64Var(&o.posteriorMB, "posterior-mb", 256, "posterior store budget in MiB for warm starts: 48n bytes per n-atom hierarchical job, 8·(3n)² more per flat job (<= 0 disables)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", time.Minute, "max wait for in-flight jobs on shutdown")
	fs.StringVar(&o.cfg.InstanceID, "instance", "", "stable instance name; qualifies job ids for shard routing (letters, digits, - and _)")
	fs.StringVar(&o.cfg.PosteriorDir, "posterior-dir", "", "directory for posterior snapshots; reloaded on startup for warm starts across restarts")
	fs.StringVar(&o.cfg.AdminToken, "admin-token", "", "bearer token required on posterior import/delete (PUT/DELETE /v1/posteriors); set to the router's -admin-token")
	return fs
}

// parseFlags parses args into options and the server.Config they select. A
// flag the daemon does not have, a stray argument or an invalid value is
// an error; main answers it with exit status 2.
func parseFlags(args []string, out io.Writer) (options, error) {
	var o options
	fs := newFlagSet(&o)
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	var err error
	switch {
	case fs.NArg() > 0:
		err = fmt.Errorf("unexpected arguments: %v", fs.Args())
	case o.cfg.MaxProcs < 0 || o.cfg.QueueDepth < 1 || o.drainTimeout <= 0:
		err = errors.New("-max-procs must be >= 0, -queue >= 1, -drain-timeout > 0")
	case !validInstance(o.cfg.InstanceID):
		err = fmt.Errorf("-instance %q must use only letters, digits, - and _", o.cfg.InstanceID)
	}
	if err != nil {
		fmt.Fprintf(out, "phmsed: %v\n", err)
		fs.Usage()
		return o, err
	}
	// Config: 0 keeps the default, negative disables.
	o.cfg.PosteriorBytes = o.posteriorMB << 20
	if o.posteriorMB <= 0 {
		o.cfg.PosteriorBytes = -1
	}
	if o.cfg.CacheSize <= 0 {
		o.cfg.CacheSize = -1
	}
	return o, nil
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
	srv := server.New(o.cfg)
	httpSrv := &http.Server{Addr: o.addr, Handler: srv}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("phmsed: serving on %s", o.addr)

	select {
	case err := <-errc:
		log.Fatalf("phmsed: %v", err)
	case <-ctx.Done():
	}
	log.Printf("phmsed: draining (up to %v)...", o.drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
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
