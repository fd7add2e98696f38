package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"time"

	"phmse/internal/client"
	"phmse/internal/encode"
	"phmse/internal/molecule"
	"phmse/internal/pool"
	"phmse/internal/server"
)

// throughput contrasts the elastic solver-team scheduler against rigid
// full-width teams on a service workload dominated by tiny jobs — the
// regime the scheduler exists for. Both sides run an identical job mix
// through a real in-process daemon over HTTP on the same processor
// budget; the baseline pins every job to a fixed-width team (MinTeam =
// MaxTeam = MaxProcs, one job at a time) with workspace pooling off, the
// elastic side coalesces tiny jobs onto MinTeam-wide teams with pooling
// on. The document written to -throughput-json records jobs/sec,
// queue-wait percentiles, and heap allocations per completed job for
// each side.
func throughput(cfg config, path string) error {
	header("PR7 — elastic scheduler throughput: many tiny jobs + a few large")

	// Tiny jobs dominate the mix — the many-small-requests regime the
	// scheduler targets — with a couple of mid-size jobs threaded through
	// so wide and narrow grants coexist.
	tiny, large := 48, 2
	largeBP := 2
	if cfg.full {
		tiny, large, largeBP = 128, 4, 4
	}
	const maxProcs = 4

	// The baseline reproduces the design the scheduler replaced: every job
	// gets a dedicated team of the full budget's width (MinTeam = MaxProcs),
	// so one job runs at a time, and no workspace is reused across solves.
	baseline, err := throughputSide("rigid full-width teams, pooling off", server.Config{
		MaxProcs: maxProcs, MinTeam: maxProcs, MaxTeam: maxProcs, QueueDepth: 1024,
	}, false, tiny, large, largeBP)
	if err != nil {
		return err
	}
	elastic, err := throughputSide("elastic coalescing teams, pooling on", server.Config{
		MaxProcs: maxProcs, MinTeam: 1, MaxTeam: maxProcs, QueueDepth: 1024,
	}, true, tiny, large, largeBP)
	if err != nil {
		return err
	}

	doc := throughputDoc{
		Experiment: "throughput",
		MaxProcs:   maxProcs,
		TinyJobs:   tiny,
		LargeJobs:  large,
		Baseline:   baseline,
		Elastic:    elastic,
	}
	if baseline.JobsPerSec > 0 {
		doc.Speedup = elastic.JobsPerSec / baseline.JobsPerSec
	}
	if baseline.AllocsPerJob > 0 {
		doc.AllocRatio = elastic.AllocsPerJob / baseline.AllocsPerJob
	}

	fmt.Printf("\n%-38s | jobs/sec | p50 wait | p99 wait | allocs/job\n", "configuration")
	for _, s := range []throughputStats{baseline, elastic} {
		fmt.Printf("%-38s | %8.2f | %7.1fms | %7.1fms | %10.0f\n",
			s.Label, s.JobsPerSec, s.QueueWaitP50Ms, s.QueueWaitP99Ms, s.AllocsPerJob)
	}
	fmt.Printf("\nelastic/baseline: %.2fx jobs/sec, %.2fx allocs/job (%d elastic grants coalesced to MinTeam)\n",
		doc.Speedup, doc.AllocRatio, elastic.Coalesced)

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

type throughputDoc struct {
	Experiment string          `json:"experiment"`
	MaxProcs   int             `json:"max_procs"`
	TinyJobs   int             `json:"tiny_jobs"`
	LargeJobs  int             `json:"large_jobs"`
	Baseline   throughputStats `json:"baseline"`
	Elastic    throughputStats `json:"elastic"`
	// Speedup is elastic jobs/sec over baseline; AllocRatio is elastic
	// allocs/job over baseline (< 1 means pooling saved allocations).
	Speedup    float64 `json:"speedup_jobs_per_sec"`
	AllocRatio float64 `json:"alloc_ratio"`
}

type throughputStats struct {
	Label          string  `json:"label"`
	WallSeconds    float64 `json:"wall_seconds"`
	JobsPerSec     float64 `json:"jobs_per_sec"`
	QueueWaitP50Ms float64 `json:"queue_wait_p50_ms"`
	QueueWaitP99Ms float64 `json:"queue_wait_p99_ms"`
	AllocsPerJob   float64 `json:"allocs_per_job"`
	BytesPerJob    float64 `json:"bytes_per_job"`
	Coalesced      int64   `json:"coalesced"`
}

// throughputSide runs the workload through one daemon configuration and
// measures it. Workspace pooling is toggled process-wide for the run and
// restored to on afterwards.
func throughputSide(label string, scfg server.Config, poolOn bool, tiny, large, largeBP int) (throughputStats, error) {
	st := throughputStats{Label: label}
	pool.SetEnabled(poolOn)
	defer pool.SetEnabled(true)

	srv := server.New(scfg)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck
	}()
	c := client.New(ts.URL)
	ctx := context.Background()

	tinyP := molecule.WithAnchors(molecule.Helix(1), 4, 0.05)
	largeP := molecule.WithAnchors(molecule.Helix(largeBP), 4, 0.05)
	params := encode.SolveParams{Perturb: 0.4, Seed: 17}

	// Warm the plan cache and the runtime before timing, so both sides
	// measure steady-state serving, not first-touch construction.
	for _, p := range []*molecule.Problem{tinyP, largeP} {
		js, err := c.Submit(ctx, p, params)
		if err != nil {
			return st, err
		}
		if _, err := c.Wait(ctx, js.ID, 5*time.Millisecond, encode.JobDone); err != nil {
			return st, err
		}
	}

	coalescedBefore := srv.Snapshot().Scheduler.Coalesced
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()

	ids := make([]string, 0, tiny+large)
	for i := 0; i < tiny+large; i++ {
		// Interleave the large jobs through the tiny stream.
		p := tinyP
		if large > 0 && i%(1+tiny/large) == tiny/large {
			p = largeP
		}
		js, err := c.Submit(ctx, p, params)
		if err != nil {
			return st, err
		}
		ids = append(ids, js.ID)
	}
	waits := make([]float64, 0, len(ids))
	for _, id := range ids {
		js, err := c.Wait(ctx, id, 5*time.Millisecond, encode.JobDone)
		if err != nil {
			return st, err
		}
		sub, err1 := time.Parse(time.RFC3339Nano, js.SubmittedAt)
		run, err2 := time.Parse(time.RFC3339Nano, js.StartedAt)
		if err1 == nil && err2 == nil {
			waits = append(waits, float64(run.Sub(sub).Microseconds())/1e3)
		}
	}

	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	jobs := len(ids)
	st.WallSeconds = wall.Seconds()
	st.JobsPerSec = float64(jobs) / wall.Seconds()
	st.AllocsPerJob = float64(after.Mallocs-before.Mallocs) / float64(jobs)
	st.BytesPerJob = float64(after.TotalAlloc-before.TotalAlloc) / float64(jobs)
	st.QueueWaitP50Ms = percentile(waits, 0.50)
	st.QueueWaitP99Ms = percentile(waits, 0.99)
	st.Coalesced = srv.Snapshot().Scheduler.Coalesced - coalescedBefore
	return st, nil
}

func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
