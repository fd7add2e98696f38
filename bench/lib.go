package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"time"

	"phmse/internal/core"
	"phmse/internal/filter"
	"phmse/internal/geom"
	"phmse/internal/hier"
	"phmse/internal/mat"
	"phmse/internal/molecule"
	"phmse/internal/par"
	"phmse/internal/pool"
	"phmse/internal/sparse"
	"phmse/internal/superpose"
	"phmse/internal/trace"
)

// The library workload is a fixed amount of work: libCycles
// constraint-application cycles of the ribosome problem from a seeded
// start, not a run to tolerance. Cycles-to-tolerance moves with the
// starting conformation (12–14 at paper scale), which would make the time
// a property of the seed; every cold cycle costs the same, so a fixed count
// times the kernels and nothing else. Six cycles take the run's 20 s and
// bring the RMS change from 0.39 Å to 0.004 Å.
const (
	libCycles      = 6
	libSmokeCycles = 3
	libPerturb     = 0.4
	libSetups      = 25
	kernelReps     = 20
)

// neverConverge is a tolerance no cycle's RMS change falls under, so the
// solve always runs its full cycle budget.
const neverConverge = 1e-300

type cycleClock struct {
	times []time.Time
	rms   []float64
}

func (c *cycleClock) onCycle(_ int, rms float64) {
	c.times = append(c.times, time.Now())
	c.rms = append(c.rms, rms)
}

// durations returns the per-cycle seconds given the solve's start.
func (c *cycleClock) durations(start time.Time) []float64 {
	out := make([]float64, len(c.times))
	prev := start
	for i, t := range c.times {
		out[i] = t.Sub(prev).Seconds()
		prev = t
	}
	return out
}

func libConfig(cycles int, rec *trace.Collector, clock *cycleClock) core.Config {
	cfg := core.Config{Mode: core.Hierarchical, Procs: 2, MaxCycles: cycles, Tol: neverConverge, Recorder: rec}
	if clock != nil {
		cfg.OnCycle = clock.onCycle
	}
	return cfg
}

func runLib(_ context.Context, e *env) (*report, error) {
	rep := newReport()
	cycles := libCycles
	if e.smoke {
		cycles = libSmokeCycles
	}

	// Inputs: the fixed problem, the seeded start.
	p := libProblem(e.smoke)
	start := molecule.Perturbed(p, libPerturb, e.seed)
	var err error
	if rep.InputDigest, err = inputDigest(e.workload, e.seed, e.smoke); err != nil {
		return nil, err
	}

	// Set-up: generate the problem and build the estimator (tree,
	// constraint assignment, batches, static processor assignment).
	var rec *trace.Collector
	if e.traced {
		rec = &trace.Collector{}
	}
	clock := &cycleClock{}
	var setups []float64
	var est *core.Estimator
	for i := 0; i < libSetups; i++ {
		t0 := time.Now()
		est, err = core.New(libProblem(e.smoke), libConfig(cycles, rec, clock))
		if err != nil {
			return nil, fmt.Errorf("core.New: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.set("setup_s", median(setups), len(setups))

	// Traced runs first time a short reference solve with the recorder
	// off: the difference between its fastest cycle and the traced solve's
	// is the tracing overhead.
	refCycle := 0.0
	if e.traced {
		refClock := &cycleClock{}
		refEst, err := core.New(p, libConfig((cycles+1)/2, nil, refClock))
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if _, err := refEst.Solve(start); err != nil {
			return nil, fmt.Errorf("reference solve: %w", err)
		}
		refCycle = slices.Min(refClock.durations(t0))
	}

	// Collect the set-ups' garbage now, so the solve's peak memory is its own.
	runtime.GC()
	var before, after runtime.MemStats
	poolBefore := pool.Snapshot()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	sol, err := est.Solve(start)
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	poolAfter := pool.Snapshot()
	rep.Attempted = 1
	if err != nil {
		rep.failf("solve: %v", err)
		return rep, nil
	}
	perCycle := clock.durations(t0)
	root := e.tr.add(0, "core.solve", "solve", t0, t0.Add(wall))
	prev := t0
	for _, t := range clock.times {
		e.tr.add(root, "hier.cycle", "solve", prev, t)
		prev = t
	}

	if msg := checkLibSolution(p, start, sol, clock.rms, cycles); msg != "" {
		rep.failf("%s", msg)
	}

	// The job's time is the cycle count times the *fastest* cycle. Every
	// cold cycle does the same work, and what differs between them on a
	// shared host is interference — other tenants' traffic on the 54 MB
	// covariance's way to memory — which only ever adds time. Over six runs
	// the fastest cycle agreed within 1.5 % where the wall of the solve
	// (reported per-layer as core.solve_s) ranged over 11 %. It is the same
	// rule the time-boxed workloads apply to their slices: the fastest
	// decile of six cycles is the fastest one.
	job := float64(cycles) * fastDecile(perCycle, lower)
	rep.set("jobs_per_s", 1/job, len(perCycle))
	rep.set("job_p50_ms", ms(job), len(perCycle))
	rep.set("job_tail_ms", ms(job), len(perCycle)) // one job: one value
	rep.set("bench.rss_peak_mb", rssPeakMB(os.Getpid()), 1)
	if !e.traced {
		return rep, nil
	}

	rep.set("core.solve_s", wall.Seconds(), 1)
	rep.set("hier.cycle_s", median(perCycle), len(perCycle))
	rep.set("hier.cycles", float64(sol.Cycles), 1)
	rep.set("bench.trace_overhead_share", ratio(slices.Min(perCycle)-refCycle, refCycle), len(perCycle))
	setClassMetrics(rep, rec.Times(), rec.Flops())
	rep.set("mat.mm_ops_per_byte", ratio(rec.Flops()[trace.MatMat], mmBytes(est, cycles)), 1)
	rep.set("core.allocs_per_solve", float64(after.Mallocs-before.Mallocs), 1)
	rep.set("core.alloc_mb_per_solve", float64(after.TotalAlloc-before.TotalAlloc)/1e6, 1)
	rep.set("pool.hit_rate", ratio(float64(poolAfter.Hits-poolBefore.Hits), float64(poolAfter.Gets-poolBefore.Gets)), int(poolAfter.Gets-poolBefore.Gets))
	e.counters = map[string]float64{
		"pool.gets":  float64(poolAfter.Gets - poolBefore.Gets),
		"pool.hits":  float64(poolAfter.Hits - poolBefore.Hits),
		"go.mallocs": float64(after.Mallocs - before.Mallocs),
	}

	if err := rootKernels(rep, e, est, p); err != nil {
		return nil, err
	}
	if err := planTimes(rep, p, cycles); err != nil {
		return nil, err
	}
	return rep, smallSolveShape(rep, e)
}

// checkLibSolution verifies the library solve's output; "" means correct.
func checkLibSolution(p *molecule.Problem, start []geom.Vec3, sol *core.Solution, rms []float64, cycles int) string {
	if sol.Cycles != cycles || len(rms) != cycles {
		return fmt.Sprintf("ran %d cycles, want %d", sol.Cycles, cycles)
	}
	if len(sol.Positions) != len(p.Atoms) || len(sol.Variances) != len(p.Atoms) {
		return "solution size does not match the problem"
	}
	for i, v := range sol.Variances {
		if !(v > 0) || math.IsInf(v, 0) {
			return fmt.Sprintf("variance of atom %d is %v, want finite and > 0", i, v)
		}
	}
	for i, pos := range sol.Positions {
		for _, c := range pos {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				return fmt.Sprintf("position of atom %d is not finite", i)
			}
		}
	}
	// The cycles must be converging: the last RMS change far below the
	// first, and the estimate much nearer the reference than the start.
	if !(rms[cycles-1] < 0.1*rms[0]) {
		return fmt.Sprintf("RMS change went %g → %g over %d cycles, want a tenfold drop", rms[0], rms[cycles-1], cycles)
	}
	ref := p.TruePositions()
	d0, err0 := superpose.RMSD(start, ref)
	d1, err1 := superpose.RMSD(sol.Positions, ref)
	if err0 != nil || err1 != nil {
		return fmt.Sprintf("superposition failed: %v %v", err0, err1)
	}
	if !(d1 < 0.25*d0) {
		return fmt.Sprintf("superposed RMSD to the reference went %.3f → %.3f Å, want a fourfold drop", d0, d1)
	}
	if !(sol.Residual <= 0.05) {
		return fmt.Sprintf("weighted residual %g, want ≤ 0.05", sol.Residual)
	}
	return ""
}

// setClassMetrics reports the paper's six operation classes: seconds,
// share of the class sum, and achieved rate for the three heavy ones.
func setClassMetrics(rep *report, t trace.Times, fl [trace.NumClasses]float64) {
	names := map[trace.Class]string{
		trace.MatMat: "mat.mm_s", trace.Solve: "mat.sys_s", trace.Chol: "mat.chol_s",
		trace.MatVec: "mat.mv_s", trace.VecOp: "mat.vec_s", trace.DenseSparse: "sparse.ds_s",
	}
	total := t.Total()
	for c, name := range names {
		rep.set(name, t[c], 1)
		rep.set(name+"_share", ratio(t[c], total), 1)
	}
	rep.set("mat.mm_gflops", ratio(fl[trace.MatMat], t[trace.MatMat])/1e9, 1)
	rep.set("mat.sys_gflops", ratio(fl[trace.Solve], t[trace.Solve])/1e9, 1)
	rep.set("sparse.ds_gflops", ratio(fl[trace.DenseSparse], t[trace.DenseSparse])/1e9, 1)
}

// mmBytes computes (does not measure) the bytes the covariance updates
// stream: every batch of a node reads and writes the node's lower
// triangle once, n(n+1)/2 · 8 B each way, per cycle.
func mmBytes(est *core.Estimator, cycles int) float64 {
	total := 0.0
	est.Root().Walk(func(n *hier.Node) {
		dim := float64(n.StateDim())
		total += float64(len(n.Batches())) * dim * (dim + 1) / 2 * 8 * 2
	})
	return total * float64(cycles)
}

// rootKernels times the three hot kernels directly at the root node's
// size (2598 × 16 at paper scale), where the covariance no longer fits in
// any cache.
func rootKernels(rep *report, e *env, est *core.Estimator, p *molecule.Problem) error {
	root := est.Root()
	n := root.StateDim()
	var batch *filter.Batch
	for _, b := range root.Batches() {
		if batch == nil || b.Dim() == 16 {
			batch = b
		}
	}
	if batch == nil {
		return fmt.Errorf("root node has no batches")
	}
	pos := make([]geom.Vec3, len(root.Atoms))
	for i, a := range root.Atoms {
		pos[i] = p.Atoms[a].Pos
	}
	team := par.NewTeam(2)

	state := filter.NewState(pos, 1)
	u := &filter.Updater{Team: team, MaxStep: 2, Guard: true}
	apply, err := timeReps(e.reps(kernelReps), func() error {
		_, err := u.Apply(state, batch)
		return err
	})
	u.ReleaseWorkspace()
	if err != nil {
		return fmt.Errorf("filter.Apply at root size: %w", err)
	}
	rep.set("filter.apply_batch_n2598_m16_ms", ms(median(apply)), len(apply))

	// Synthetic operands of the same shape for the two kernels under it.
	const m = 16
	rng := rand.New(rand.NewSource(1))
	c := state.C
	a, b := mat.New(n, m), mat.New(n, m)
	for i := range a.Data {
		a.Data[i], b.Data[i] = rng.NormFloat64()*1e-3, rng.NormFloat64()*1e-3
	}
	syr, _ := timeReps(e.reps(kernelReps), func() error { mat.Syr2kSubPar(team, c, a, b); return nil })
	rep.set("mat.syr2k_n2598_m16_ms", ms(median(syr)), len(syr))

	hb := sparse.NewBuilder(n)
	for r := 0; r < m; r++ { // a distance row: two atoms, three coordinates each
		i, j := rng.Intn(n/3), rng.Intn(n/3)
		for j == i {
			j = rng.Intn(n / 3)
		}
		hb.AddRow([]int{3 * i, 3*i + 1, 3*i + 2, 3 * j, 3*j + 1, 3*j + 2},
			[]float64{0.5, -0.3, 0.8, -0.5, 0.3, -0.8})
	}
	h := hb.Build()
	ds, _ := timeReps(e.reps(kernelReps), func() error { h.DenseMulTSymPar(team, a, c); return nil })
	rep.set("sparse.dense_mult_sym_n2598_m16_ms", ms(median(ds)), len(ds))
	return nil
}

// timeReps runs f reps times after one untimed warm-up call and returns
// the seconds of each.
func timeReps(reps int, f func() error) ([]float64, error) {
	if err := f(); err != nil {
		return nil, err
	}
	out := make([]float64, reps)
	for i := range out {
		t0 := time.Now()
		if err := f(); err != nil {
			return nil, err
		}
		out[i] = time.Since(t0).Seconds()
	}
	return out, nil
}

// planTimes times estimator construction from scratch against
// construction that reuses the planning artifacts — what the serving
// layer's plan cache saves.
func planTimes(rep *report, p *molecule.Problem, cycles int) error {
	cfg := libConfig(cycles, nil, nil)
	var art *core.PlanArtifacts
	build, err := timeReps(libSetups, func() error {
		var err error
		_, art, err = core.NewWithPlan(p, cfg, nil)
		return err
	})
	if err != nil {
		return err
	}
	reuse, err := timeReps(libSetups, func() error {
		_, _, err := core.NewWithPlan(p, cfg, art)
		return err
	})
	if err != nil {
		return err
	}
	rep.set("core.plan_build_ms", ms(median(build)), len(build))
	rep.set("core.plan_reuse_ms", ms(median(reuse)), len(reuse))
	return nil
}

// smallSolveShape measures, on a helix-2bp library solve, the two shape
// numbers the ribosome solve cannot show cheaply: parallel efficiency at
// two processors, T1/(2·T2), and the share of a one-processor solve's
// wall time spent outside the six kernel classes.
func smallSolveShape(rep *report, e *env) error {
	p := helixTopologies(2, 1)[0]
	start := molecule.Perturbed(p, 0.4, 17)
	solve := func(procs int, rec *trace.Collector) (float64, error) {
		est, err := core.New(p, core.Config{Mode: core.Hierarchical, Procs: procs, MaxCycles: 20, Tol: neverConverge, Recorder: rec})
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		_, err = est.Solve(start)
		return time.Since(t0).Seconds(), err
	}
	var t1s, t2s, nonKernel []float64
	for i := 0; i < e.reps(3); i++ {
		rec := &trace.Collector{}
		t1, err := solve(1, rec)
		if err != nil {
			return fmt.Errorf("helix-2bp solve: %w", err)
		}
		t2, err := solve(2, nil)
		if err != nil {
			return fmt.Errorf("helix-2bp solve: %w", err)
		}
		t1s, t2s = append(t1s, t1), append(t2s, t2)
		nonKernel = append(nonKernel, 1-ratio(rec.Times().Total(), t1))
	}
	rep.set("par.scaling_eff_p2", ratio(median(t1s), 2*median(t2s)), len(t1s))
	rep.set("hier.nonkernel_share", median(nonKernel), len(nonKernel))
	return nil
}
