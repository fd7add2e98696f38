package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"phmse/internal/molecule"
)

// warmJob is the serving layer's small job in process: a helix-1bp
// topology whose planning artifacts are cached, warm-started from its own
// converged posterior — build the estimator on the artifacts, solve from
// the posterior, take the Posterior, release the solution and close the
// estimator.
type warmJob struct {
	p    *molecule.Problem
	cfg  Config
	art  *PlanArtifacts
	post *Posterior
}

func newWarmJob(tb testing.TB) *warmJob {
	tb.Helper()
	w := &warmJob{
		p:   molecule.WithAnchors(molecule.Helix(1), 4, 0.05),
		cfg: Config{Mode: Hierarchical, Procs: 1},
	}
	est, art, err := NewWithPlan(w.p, w.cfg, nil)
	if err != nil {
		tb.Fatal(err)
	}
	sol, err := est.Solve(molecule.Perturbed(w.p, 0.4, 17))
	if err != nil {
		tb.Fatal(err)
	}
	est.Close()
	w.art, w.post = art, sol.Posterior()
	return w
}

// run runs one job and returns the time it spent building the estimator,
// solving, and taking the posterior and giving everything back.
func (w *warmJob) run(tb testing.TB) (setup, solve, finish time.Duration) {
	t0 := time.Now()
	est, _, err := NewWithPlan(w.p, w.cfg, w.art)
	if err != nil {
		tb.Fatal(err)
	}
	t1 := time.Now()
	sol, err := est.SolveFrom(context.Background(), w.post)
	if err != nil {
		tb.Fatal(err)
	}
	t2 := time.Now()
	_ = sol.Posterior()
	sol.Release()
	est.Close()
	return t1.Sub(t0), t2.Sub(t1), time.Since(t2)
}

// BenchmarkWarmJob times one steady-state warm job, reporting µs, bytes
// and allocations per job, and the µs of its three stages: building the
// estimator on the cached artifacts, the solve, and taking the posterior
// and handing the state and tree back.
func BenchmarkWarmJob(b *testing.B) {
	w := newWarmJob(b)
	w.run(b)
	b.ReportAllocs()
	b.ResetTimer()
	var setup, solve, finish time.Duration
	for i := 0; i < b.N; i++ {
		s, v, f := w.run(b)
		setup, solve, finish = setup+s, solve+v, finish+f
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(b.N) }
	b.ReportMetric(us(setup+solve+finish), "us/job")
	b.ReportMetric(us(setup), "setup-us/job")
	b.ReportMetric(us(solve), "solve-us/job")
	b.ReportMetric(us(finish), "finish-us/job")
}

// A steady-state warm job pays for its one cycle, not its set-up: the
// prepared tree, its builders and plans, and the pooled root state are all
// reused, and its constraints are evaluated from columns, so the job
// allocates at most 335 objects and 28 KB — a quarter over the 267 and
// 22 KB measured when this was written (a rebuilt tree alone is over
// 4 000 objects and 300 KB).
func TestWarmJobAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	w := newWarmJob(t)
	w.run(t)
	const jobs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < jobs; i++ {
		w.run(t)
	}
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / jobs
	bytes := (after.TotalAlloc - before.TotalAlloc) / jobs
	t.Logf("%d allocations, %d bytes per warm job", allocs, bytes)
	if allocs > 335 || bytes > 28<<10 {
		t.Fatalf("a warm job allocates %d objects and %d bytes, want at most 335 and %d", allocs, bytes, 28<<10)
	}
}
