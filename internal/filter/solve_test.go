package filter_test

// The guard, the watchdog, the pools and the trace as a whole solve sees
// them. The flat organization is the hierarchy of one leaf, so these run
// hier.Solve on a tree of one leaf holding every atom.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"phmse/internal/constraint"
	"phmse/internal/faultinject"
	"phmse/internal/filter"
	"phmse/internal/geom"
	"phmse/internal/hier"
	"phmse/internal/molecule"
	"phmse/internal/par"
	"phmse/internal/pool"
	"phmse/internal/trace"
)

// solve runs the flat organization from init: a cold hier.Solve on a tree
// of one leaf holding every atom, with the weighted residual the hierarchy
// leaves to its caller filled in.
func solve(init []geom.Vec3, cons constraint.Set, ctl filter.Control) (*filter.State, filter.Result, error) {
	return solveFrom(init, cons, ctl, hier.Prior{})
}

// solveFrom is solve under a warm prior.
func solveFrom(init []geom.Vec3, cons constraint.Set, ctl filter.Control, warm hier.Prior) (*filter.State, filter.Result, error) {
	leaf := &molecule.Group{AtomIDs: make([]int, len(init))}
	for i := range leaf.AtomIDs {
		leaf.AtomIDs[i] = i
	}
	root, err := hier.Build(leaf, &cons)
	if err != nil {
		return nil, filter.Result{}, err
	}
	s, res, err := hier.Solve(root, init, hier.Options{Control: ctl, Warm: warm})
	if s != nil {
		res.Residual = filter.WeightedResidual(s.Positions(), &cons)
	}
	return s, res, err
}

// finite reports whether x and the lower triangle of C — the state as the
// solver keeps it — are finite.
func finite(s *filter.State) bool {
	ok := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	for _, v := range s.X {
		if !ok(v) {
			return false
		}
	}
	for i := 0; i < s.Dim(); i++ {
		for _, v := range s.C.Row(i)[:i+1] {
			if !ok(v) {
				return false
			}
		}
	}
	return true
}

// A single batch whose factorization is forced to fail every cycle must be
// quarantined — recorded in the diagnostics — while the remaining batches
// carry the solve to convergence.
func TestQuarantineSingleBadBatchConverges(t *testing.T) {
	faultinject.Set(&faultinject.Hooks{
		Cholesky: func(site faultinject.Site) bool { return site.Batch == 1 },
	})
	t.Cleanup(faultinject.Reset)

	_, cons := filter.ChainProblem()
	_, res, err := solve(filter.PerturbedChain(), cons, filter.Control{BatchSize: 1, MaxCycles: 200})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	snap := res.Diag.Snapshot()
	if len(snap.Quarantined) != 1 {
		t.Fatalf("quarantined = %+v, want one record", snap.Quarantined)
	}
	q := snap.Quarantined[0]
	if q.Batch != 1 || q.Reason != filter.ReasonIndefinite {
		t.Fatalf("record = %+v", q)
	}
	if q.FirstCycle != 1 || q.Cycles != res.Cycles {
		t.Fatalf("record cycles = %+v, solve ran %d cycles", q, res.Cycles)
	}
	if len(snap.RMSTrajectory) != res.Cycles {
		t.Fatalf("trajectory has %d entries, want %d", len(snap.RMSTrajectory), res.Cycles)
	}
}

// A batch that poisons the state with NaN must be rolled back to the
// pre-batch snapshot: the solve still converges and the rollback is
// counted.
func TestPoisonedBatchRollsBack(t *testing.T) {
	faultinject.Set(&faultinject.Hooks{
		Poison: func(site faultinject.Site) bool { return site.Batch == 2 && site.Cycle == 1 },
	})
	t.Cleanup(faultinject.Reset)

	_, cons := filter.ChainProblem()
	s, res, err := solve(filter.PerturbedChain(), cons, filter.Control{BatchSize: 1, MaxCycles: 200})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	if !finite(s) {
		t.Fatal("NaN survived the rollback")
	}
	snap := res.Diag.Snapshot()
	if snap.Rollbacks != 1 {
		t.Fatalf("rollbacks = %d, want 1", snap.Rollbacks)
	}
	if len(snap.Quarantined) != 1 || snap.Quarantined[0].Reason != filter.ReasonNonFinite {
		t.Fatalf("quarantined = %+v", snap.Quarantined)
	}
}

// When every batch fails its factorization, no progress is possible: the
// no-progress policy converts pervasive quarantine into the typed
// indefinite error instead of spinning MaxCycles doing nothing.
func TestAllBatchesIndefiniteFailsTyped(t *testing.T) {
	faultinject.Set(&faultinject.Hooks{
		Cholesky: func(faultinject.Site) bool { return true },
	})
	t.Cleanup(faultinject.Reset)

	_, cons := filter.ChainProblem()
	_, res, err := solve(filter.PerturbedChain(), cons, filter.Control{BatchSize: 1})
	if !errors.Is(err, filter.ErrIndefinite) {
		t.Fatalf("err = %v, want ErrIndefinite", err)
	}
	if res.Cycles != 1 {
		t.Fatalf("spun %d cycles before giving up", res.Cycles)
	}
}

// Same policy for pervasive NaN poisoning: everything rolled back, typed
// non-finite failure.
func TestAllBatchesPoisonedFailsTyped(t *testing.T) {
	faultinject.Set(&faultinject.Hooks{
		Poison: func(faultinject.Site) bool { return true },
	})
	t.Cleanup(faultinject.Reset)

	_, cons := filter.ChainProblem()
	s, _, err := solve(filter.PerturbedChain(), cons, filter.Control{BatchSize: 1})
	if !errors.Is(err, filter.ErrNonFinite) {
		t.Fatalf("err = %v, want ErrNonFinite", err)
	}
	var nf *filter.NonFinite
	if !errors.As(err, &nf) || nf.Cycle != 1 {
		t.Fatalf("typed error = %#v", err)
	}
	if !finite(s) {
		t.Fatal("state left non-finite")
	}
}

// runaway makes a position observation of atom 0 self-inconsistent: a
// faultinject.Linearized hook rewrites its target to three times farther
// out than wherever the estimate currently is, so the iteration has no
// fixed point and the RMS change grows geometrically.
func runaway(t *testing.T) constraint.Set {
	faultinject.Set(&faultinject.Hooks{Linearized: func(_ faultinject.Site, lin *constraint.Lin) {
		for d, h := range lin.H {
			lin.Z[d] = 3*h + 1
		}
	}})
	t.Cleanup(faultinject.Reset)
	return constraint.Of(constraint.Position{I: 0, Sigma: 0.01}.Row())
}

// The divergence watchdog must abort a runaway iteration with the typed
// error carrying the RMS trajectory, long before MaxCycles.
func TestDivergenceWatchdog(t *testing.T) {
	cons := runaway(t)
	_, res, err := solve([]geom.Vec3{{0, 0, 0}}, cons, filter.Control{MaxStep: -1, MaxCycles: 1000})
	if !errors.Is(err, filter.ErrDiverged) {
		t.Fatalf("err = %v, want ErrDiverged", err)
	}
	var dv *filter.Diverged
	if !errors.As(err, &dv) {
		t.Fatalf("not a *Diverged: %#v", err)
	}
	if dv.Grew < filter.DefaultDivergeAfter {
		t.Fatalf("Grew = %d, want >= %d", dv.Grew, filter.DefaultDivergeAfter)
	}
	if len(dv.History) != res.Cycles {
		t.Fatalf("history has %d entries, %d cycles ran", len(dv.History), res.Cycles)
	}
	// The tail must actually be growing.
	n := len(dv.History)
	if n < 2 || dv.History[n-1] <= dv.History[n-2] {
		t.Fatalf("history tail not growing: %v", dv.History)
	}
	if res.Cycles >= 1000 {
		t.Fatal("watchdog never fired")
	}
}

// The watchdog must not fire on a converging solve whose RMS change
// oscillates gently (long low-amplitude upswings are normal near a fixed
// point): only a compounding streak past DivergeGrowthFactor counts.
func TestWatchdogIgnoresGentleOscillation(t *testing.T) {
	_, cons := filter.ChainProblem()
	_, res, err := solve(filter.PerturbedChain(), cons, filter.Control{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
}

// A non-finite prior is caught by the entry check of the pass, once: every
// batch is quarantined non_finite without assembling, factorizing or
// multiplying anything, and the no-progress policy fails the solve after
// the first cycle with the typed error.
func TestNonFinitePriorRefusedWithoutWork(t *testing.T) {
	_, cons := filter.ChainProblem()
	init := filter.PerturbedChain()
	init[1][1] = math.NaN() // x[4]
	rec := &trace.Collector{}
	_, res, err := solve(init, cons, filter.Control{BatchSize: 1, Rec: rec})
	if !errors.Is(err, filter.ErrNonFinite) {
		t.Fatalf("err = %v, want ErrNonFinite", err)
	}
	if res.Cycles != 1 {
		t.Fatalf("ran %d cycles, want 1", res.Cycles)
	}
	if flops := rec.Flops(); flops != [trace.NumClasses]float64{} {
		t.Fatalf("flops spent on a non-finite prior: %v", flops)
	}
	snap := res.Diag.Snapshot()
	if snap.RidgeRetries != 0 {
		t.Fatalf("%d ridge retries", snap.RidgeRetries)
	}
	if len(snap.Quarantined) != cons.Len() {
		t.Fatalf("quarantined %d of %d batches", len(snap.Quarantined), cons.Len())
	}
	for _, q := range snap.Quarantined {
		if q.Reason != filter.ReasonNonFinite {
			t.Fatalf("record = %+v", q)
		}
	}
}

// triangleProblem is the 3-4-5 triangle solve used across the pooling
// tests: small enough to run in microseconds, nonlinear enough that a
// stale value leaking into a workspace would derail convergence.
func triangleProblem() ([]geom.Vec3, constraint.Set) {
	init := []geom.Vec3{{0, 0, 0}, {2.5, 0.4, 0}, {0.3, 3.5, 0.2}}
	cons := constraint.Of(
		constraint.Position{I: 0, Target: geom.Vec3{0, 0, 0}, Sigma: 0.01}.Row(),
		constraint.Distance{I: 0, J: 1, Target: 3, Sigma: 0.01}.Row(),
		constraint.Distance{I: 0, J: 2, Target: 4, Sigma: 0.01}.Row(),
		constraint.Distance{I: 1, J: 2, Target: 5, Sigma: 0.01}.Row())
	return init, cons
}

func solveTriangleState() (*filter.State, filter.Result, error) {
	init, cons := triangleProblem()
	return solve(init, cons, filter.Control{Tol: 1e-8, MaxCycles: 300})
}

func solveTriangle(t *testing.T) *filter.State {
	t.Helper()
	s, res, err := solveTriangleState()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	return s
}

// poisonPool seeds the buffer pool with NaN-filled buffers of the sizes a
// small solve leases, so any kernel that reads a pooled buffer before
// writing it produces a NaN the assertions below catch.
func poisonPool() {
	for _, n := range []int{1, 3, 9, 16, 27, 81, 128, 256, 512, 2048} {
		b := pool.Get(n)
		for i := range b {
			b[i] = math.NaN()
		}
		pool.Put(b)
	}
}

// A solve through poisoned pooled workspaces must produce bitwise the
// same estimate as one through fresh allocations: every pooled buffer is
// fully overwritten before it is read, so reuse cannot perturb a single
// bit of the arithmetic.
func TestPooledSolveBitwiseMatchesUnpooled(t *testing.T) {
	pool.SetEnabled(false)
	ref := solveTriangle(t)
	pool.SetEnabled(true)
	defer pool.SetEnabled(true)
	poisonPool()
	got := solveTriangle(t)
	for i := range ref.X {
		if got.X[i] != ref.X[i] {
			t.Fatalf("X[%d]: pooled %v != unpooled %v", i, got.X[i], ref.X[i])
		}
	}
	if err := filter.SameBits(got, ref); err != nil {
		t.Fatalf("covariances differ bitwise between pooled and unpooled solves: %v", err)
	}
}

// A workspace released with NaN-poisoned scratch must not contaminate the
// updater that leases it next.
func TestReleasedWorkspaceIsolation(t *testing.T) {
	u := &filter.Updater{}
	filter.PoisonScratch(u)
	u.ReleaseWorkspace()
	if filter.HoldsWorkspace(u) {
		t.Fatal("ReleaseWorkspace left the workspace attached")
	}

	s := solveTriangle(t)
	for _, v := range s.X {
		if math.IsNaN(v) {
			t.Fatal("poisoned recycled workspace leaked into a solve")
		}
	}
	// Releasing twice (or with nothing leased) must be harmless.
	u.ReleaseWorkspace()
}

// Concurrent solves sharing the process-wide pools must each converge to
// the same answer as an isolated solve — two jobs never observe each
// other's workspaces. Run under -race in CI.
func TestConcurrentPooledSolvesIsolated(t *testing.T) {
	pool.SetEnabled(false)
	ref := solveTriangle(t)
	pool.SetEnabled(true)
	defer pool.SetEnabled(true)
	poisonPool()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				got, res, err := solveTriangleState()
				if err != nil || !res.Converged {
					t.Errorf("concurrent pooled solve failed: %v %+v", err, res)
					return
				}
				for j := range ref.X {
					if got.X[j] != ref.X[j] {
						t.Errorf("concurrent pooled solve diverged at X[%d]: %v != %v", j, got.X[j], ref.X[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestSolveConvergesTriangle(t *testing.T) {
	// Anchor one atom, constrain a 3-4-5 triangle; start from a distorted
	// configuration and expect the distances to converge.
	init := []geom.Vec3{{0, 0, 0}, {2.5, 0.4, 0}, {0.3, 3.5, 0.2}}
	cons := constraint.Of(
		constraint.Position{I: 0, Target: geom.Vec3{0, 0, 0}, Sigma: 0.01}.Row(),
		constraint.Distance{I: 0, J: 1, Target: 3, Sigma: 0.01}.Row(),
		constraint.Distance{I: 0, J: 2, Target: 4, Sigma: 0.01}.Row(),
		constraint.Distance{I: 1, J: 2, Target: 5, Sigma: 0.01}.Row())
	s, res, err := solve(init, cons, filter.Control{Tol: 1e-6, MaxCycles: 200})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	if d := geom.Dist(s.Pos(0), s.Pos(1)); math.Abs(d-3) > 1e-3 {
		t.Fatalf("d01 = %g", d)
	}
	if d := geom.Dist(s.Pos(0), s.Pos(2)); math.Abs(d-4) > 1e-3 {
		t.Fatalf("d02 = %g", d)
	}
	if d := geom.Dist(s.Pos(1), s.Pos(2)); math.Abs(d-5) > 1e-3 {
		t.Fatalf("d12 = %g", d)
	}
	if res.Residual > 1 {
		t.Fatalf("weighted residual %g", res.Residual)
	}
}

func TestSolveRecordsTrace(t *testing.T) {
	var rec trace.Collector
	cons := constraint.Of(constraint.Distance{I: 0, J: 1, Target: 2, Sigma: 0.1}.Row())
	if _, _, err := solve([]geom.Vec3{{0, 0, 0}, {1, 0, 0}}, cons, filter.Control{MaxCycles: 3, Rec: &rec}); err != nil {
		t.Fatal(err)
	}
	times := rec.Times()
	flops := rec.Flops()
	for _, cls := range []trace.Class{trace.DenseSparse, trace.Chol, trace.Solve, trace.MatMat, trace.MatVec, trace.VecOp} {
		if flops[cls] <= 0 {
			t.Fatalf("no flops recorded for %v", cls)
		}
		if times[cls] < 0 {
			t.Fatalf("negative time for %v", cls)
		}
	}
}

func TestSolveBatchSizeInsensitivity(t *testing.T) {
	// The estimate the cycles converge to should not depend strongly on
	// batch size (the paper varies m for performance, not accuracy).
	init := []geom.Vec3{{0, 0, 0}, {2.5, 0.4, 0}, {0.3, 3.5, 0.2}, {3.1, 3.8, -0.1}}
	cons := constraint.Of(
		constraint.Position{I: 0, Target: geom.Vec3{0, 0, 0}, Sigma: 0.01}.Row(),
		constraint.Distance{I: 0, J: 1, Target: 3, Sigma: 0.02}.Row(),
		constraint.Distance{I: 0, J: 2, Target: 4, Sigma: 0.02}.Row(),
		constraint.Distance{I: 1, J: 2, Target: 5, Sigma: 0.02}.Row(),
		constraint.Distance{I: 1, J: 3, Target: 4, Sigma: 0.02}.Row(),
		constraint.Distance{I: 2, J: 3, Target: 3, Sigma: 0.02}.Row())
	dists := func(batch int) []float64 {
		s, _, err := solve(init, cons, filter.Control{BatchSize: batch, Tol: 1e-7, MaxCycles: 300})
		if err != nil {
			t.Fatal(err)
		}
		return []float64{
			geom.Dist(s.Pos(0), s.Pos(1)),
			geom.Dist(s.Pos(1), s.Pos(3)),
		}
	}
	a, b := dists(1), dists(16)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 5e-3 {
			t.Fatalf("batch-size sensitivity: %v vs %v", a, b)
		}
	}
}

// upperZero reports the first strict-upper entry of C that is not +0.
func upperZero(s *filter.State) error {
	for i := 0; i < s.Dim(); i++ {
		for j := i + 1; j < s.Dim(); j++ {
			if v := s.C.At(i, j); math.Float64bits(v) != 0 {
				return fmt.Errorf("C[%d][%d] = %v was written", i, j, v)
			}
		}
	}
	return nil
}

// A solve neither reads nor writes the strict upper triangle of C, cold or
// continuing a dense prior, at every team width: on unpooled (zeroed) buffers it leaves the upper triangle zero,
// and through a NaN-poisoned pool from a prior whose upper triangle is NaN
// it gives the same x and lower triangle bit for bit, with the prior's NaN
// intact.
func TestUpperTriangleNeverWrittenBySolve(t *testing.T) {
	defer pool.SetEnabled(true)
	rng := rand.New(rand.NewSource(7))
	for _, procs := range []int{1, 2, 3, 7} {
		pos, cons := filter.RandChain(rng, 12)
		batches, err := filter.MakeBatches(&cons, cons.AllRows(), func(a int) int { return a }, 8)
		if err != nil {
			t.Fatal(err)
		}
		ctl := filter.Control{Team: par.NewTeam(procs), MaxCycles: 3}
		// One batch first, so the warm solve starts from a dense prior.
		prior := filter.NewState(pos, 4)
		if _, _, err := (&filter.Updater{}).ApplyLower(prior, batches[:1], filter.Bound{}); err != nil {
			t.Fatal(err)
		}
		for _, path := range []struct {
			name string
			warm bool
		}{{"Solve cold", false}, {"Solve warm", true}} {
			run := func(from *filter.State) *filter.State {
				var warm hier.Prior
				if path.warm {
					warm.Cov = from.C
				}
				s, _, err := solveFrom(from.Positions(), cons, ctl, warm)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			pool.SetEnabled(false)
			want := run(prior)
			if err := upperZero(want); err != nil {
				t.Fatalf("%s, procs=%d: %v", path.name, procs, err)
			}
			pool.SetEnabled(true)
			poisonPool()
			from := prior.Clone()
			filter.PoisonUpper(from)
			got := run(from)
			if err := filter.SameBits(got, want); err != nil {
				t.Fatalf("%s, procs=%d: %v", path.name, procs, err)
			}
			if err := filter.UpperPoisoned(from); err != nil {
				t.Fatalf("%s, procs=%d: %v", path.name, procs, err)
			}
		}
	}
}
