package filter

import (
	"errors"
	"math"
	"testing"

	"phmse/internal/constraint"
	"phmse/internal/faultinject"
	"phmse/internal/geom"
	"phmse/internal/solvererr"
)

// chainProblem builds a well-determined 4-atom chain: anchored first atom
// plus unit distances, split into several one-constraint batches so the
// quarantine of one batch leaves plenty of information in the others.
func chainProblem() ([]geom.Vec3, []constraint.Constraint) {
	pos := []geom.Vec3{{0, 0, 0}, {1, 0, 0}, {2, 0, 0}, {3, 0, 0}}
	cons := []constraint.Constraint{
		constraint.Position{I: 0, Target: geom.Vec3{0, 0, 0}, Sigma: 0.01},
		constraint.Distance{I: 0, J: 1, Target: 1, Sigma: 0.05},
		constraint.Distance{I: 1, J: 2, Target: 1, Sigma: 0.05},
		constraint.Distance{I: 2, J: 3, Target: 1, Sigma: 0.05},
		constraint.Distance{I: 0, J: 2, Target: 2, Sigma: 0.05},
		constraint.Distance{I: 1, J: 3, Target: 2, Sigma: 0.05},
	}
	return pos, cons
}

// perturbed returns the chain start displaced enough that the solve has
// real work to do.
func perturbedChain() []geom.Vec3 {
	pos, _ := chainProblem()
	for i := range pos {
		pos[i][0] += 0.3 * float64(i%2)
		pos[i][1] -= 0.2
	}
	return pos
}

// A batch made of duplicated zero-noise observations has a singular
// innovation covariance; the guard's ridge escalation adds diagonal jitter
// until it factors, so the solve succeeds where the raw procedure fails.
func TestRidgeRecoversSingularBatch(t *testing.T) {
	mk := func() (*State, []*Batch) {
		s := NewState([]geom.Vec3{{0, 0, 0}, {3, 0, 0}}, 25)
		dup := constraint.Distance{I: 0, J: 1, Target: 3, Sigma: 0}
		batches, err := MakeBatches([]constraint.Constraint{dup, dup}, ident, 16)
		if err != nil {
			t.Fatal(err)
		}
		return s, batches
	}

	s, batches := mk()
	raw := &Updater{}
	if _, err := raw.ApplyAll(s, batches); !errors.Is(err, solvererr.ErrIndefinite) {
		t.Fatalf("unguarded err = %v, want ErrIndefinite", err)
	}

	s, batches = mk()
	diag := &Diagnostics{}
	guarded := &Updater{Guard: true, Diag: diag}
	applied, err := guarded.ApplyAll(s, batches)
	if err != nil {
		t.Fatalf("guarded ApplyAll: %v", err)
	}
	if applied == 0 {
		t.Fatal("guarded ApplyAll applied nothing")
	}
	if !stateFinite(s) {
		t.Fatal("state not finite after ridge recovery")
	}
	if snap := diag.Snapshot(); snap.RidgeRetries == 0 {
		t.Fatal("ridge retries not recorded")
	}
}

// A single batch whose factorization is forced to fail every cycle must be
// quarantined — recorded in the diagnostics — while the remaining batches
// carry the solve to convergence.
func TestQuarantineSingleBadBatchConverges(t *testing.T) {
	faultinject.Set(&faultinject.Hooks{
		Cholesky: func(site faultinject.Site) bool { return site.Batch == 1 },
	})
	t.Cleanup(faultinject.Reset)

	_, cons := chainProblem()
	s := NewState(perturbedChain(), 100)
	res, err := Solve(s, cons, Control{BatchSize: 1, MaxCycles: 200}, false)
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
	if q.Batch != 1 || q.Reason != ReasonIndefinite {
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

	_, cons := chainProblem()
	s := NewState(perturbedChain(), 100)
	res, err := Solve(s, cons, Control{BatchSize: 1, MaxCycles: 200}, false)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	if !stateFinite(s) {
		t.Fatal("NaN survived the rollback")
	}
	snap := res.Diag.Snapshot()
	if snap.Rollbacks != 1 {
		t.Fatalf("rollbacks = %d, want 1", snap.Rollbacks)
	}
	if len(snap.Quarantined) != 1 || snap.Quarantined[0].Reason != ReasonNonFinite {
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

	_, cons := chainProblem()
	s := NewState(perturbedChain(), 100)
	res, err := Solve(s, cons, Control{BatchSize: 1}, false)
	if !errors.Is(err, solvererr.ErrIndefinite) {
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

	_, cons := chainProblem()
	s := NewState(perturbedChain(), 100)
	_, err := Solve(s, cons, Control{BatchSize: 1}, false)
	if !errors.Is(err, solvererr.ErrNonFinite) {
		t.Fatalf("err = %v, want ErrNonFinite", err)
	}
	var nf *solvererr.NonFinite
	if !errors.As(err, &nf) || nf.Cycle != 1 {
		t.Fatalf("typed error = %#v", err)
	}
	if !stateFinite(s) {
		t.Fatal("state left non-finite")
	}
}

// NoGuard restores the raw fail-fast procedure: the first injected
// factorization failure aborts the solve instead of being contained.
func TestNoGuardFailsFast(t *testing.T) {
	faultinject.Set(&faultinject.Hooks{
		Cholesky: func(site faultinject.Site) bool { return site.Batch == 1 },
	})
	t.Cleanup(faultinject.Reset)

	_, cons := chainProblem()
	s := NewState(perturbedChain(), 100)
	res, err := Solve(s, cons, Control{BatchSize: 1, NoGuard: true}, false)
	if !errors.Is(err, solvererr.ErrIndefinite) {
		t.Fatalf("err = %v, want ErrIndefinite", err)
	}
	if len(res.Diag.Snapshot().Quarantined) != 0 {
		t.Fatal("NoGuard must not quarantine")
	}
}

// runaway is a self-inconsistent observation: it always reports a target
// three times farther out than wherever the estimate currently is, so the
// iteration has no fixed point and the RMS change grows geometrically.
type runaway struct {
	i    int
	last float64
}

func (r *runaway) Atoms() []int { return []int{r.i} }
func (r *runaway) Dim() int     { return 1 }

func (r *runaway) Eval(pos []geom.Vec3, h []float64, jac [][]float64) {
	r.last = pos[0][0]
	h[0] = pos[0][0]
	jac[0][0] = 1
}

// Observed runs after Eval in batch assembly, so last is current.
func (r *runaway) Observed(z, sigma2 []float64) {
	z[0] = 3*r.last + 1
	sigma2[0] = 1e-4
}

// The divergence watchdog must abort a runaway iteration with the typed
// error carrying the RMS trajectory, long before MaxCycles.
func TestDivergenceWatchdog(t *testing.T) {
	s := NewState([]geom.Vec3{{0, 0, 0}}, 100)
	cons := []constraint.Constraint{&runaway{i: 0}}
	res, err := Solve(s, cons, Control{MaxStep: -1, MaxCycles: 1000}, false)
	if !errors.Is(err, solvererr.ErrDiverged) {
		t.Fatalf("err = %v, want ErrDiverged", err)
	}
	var dv *solvererr.Diverged
	if !errors.As(err, &dv) {
		t.Fatalf("not a *Diverged: %#v", err)
	}
	if dv.Grew < DefaultDivergeAfter {
		t.Fatalf("Grew = %d, want >= %d", dv.Grew, DefaultDivergeAfter)
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

// A negative DivergeAfter disables the watchdog: the runaway iteration
// runs to MaxCycles and overflows to Inf without a diverged error.
func TestDivergenceWatchdogDisabled(t *testing.T) {
	s := NewState([]geom.Vec3{{0, 0, 0}}, 100)
	cons := []constraint.Constraint{&runaway{i: 0}}
	res, err := Solve(s, cons, Control{MaxStep: -1, MaxCycles: 30, DivergeAfter: -1, NoGuard: true}, false)
	if errors.Is(err, solvererr.ErrDiverged) {
		t.Fatal("watchdog fired while disabled")
	}
	if res.Cycles != 30 {
		t.Fatalf("ran %d cycles, want 30", res.Cycles)
	}
}

// WithDefaults is idempotent, so a control block may be normalised by every
// entry point it passes through: zero selects the default, negative stays
// negative ("off") instead of collapsing to zero and being defaulted by the
// next application, positive is kept.
func TestControlDefaultsIdempotent(t *testing.T) {
	cases := []struct {
		step, wantStep   float64
		after, wantAfter int
	}{
		{0, DefaultMaxStep, 0, DefaultDivergeAfter},
		{-1, -1, -1, -1},
		{0.5, 0.5, 5, 5},
	}
	for _, c := range cases {
		once := Control{MaxStep: c.step, DivergeAfter: c.after}.WithDefaults()
		twice := once.WithDefaults()
		if once.MaxStep != c.wantStep || once.DivergeAfter != c.wantAfter {
			t.Errorf("WithDefaults(%g, %d) = (%g, %d), want (%g, %d)",
				c.step, c.after, once.MaxStep, once.DivergeAfter, c.wantStep, c.wantAfter)
		}
		if twice.MaxStep != once.MaxStep || twice.DivergeAfter != once.DivergeAfter ||
			twice.Diag != once.Diag || twice.Team != once.Team || twice.BatchSize != once.BatchSize ||
			twice.MaxCycles != once.MaxCycles || twice.Tol != once.Tol || twice.InitVar != once.InitVar {
			t.Errorf("second WithDefaults moved the block: %+v -> %+v", once, twice)
		}
		if u := once.Updater(once.Team, "", 1); (u.MaxStep > 0) != (c.wantStep > 0) {
			t.Errorf("MaxStep %g reached the updater as %g", c.step, u.MaxStep)
		}
	}
}

// The watchdog must not fire on a converging solve whose RMS change
// oscillates gently (long low-amplitude upswings are normal near a fixed
// point): only a compounding streak past DivergeGrowthFactor counts.
func TestWatchdogIgnoresGentleOscillation(t *testing.T) {
	_, cons := chainProblem()
	s := NewState(perturbedChain(), 100)
	res, err := Solve(s, cons, Control{}, false)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
}

// Nil-safety of the diagnostics sink and the unconfigured harness: the
// zero-cost production paths.
func TestNilDiagnosticsAndHooks(t *testing.T) {
	if faultinject.Installed() != nil {
		t.Fatal("hooks installed by default")
	}
	var d *Diagnostics
	d.AddRidgeRetry()
	d.AddApplied(3)
	d.AddQuarantine("n", 0, 1, ReasonIndefinite)
	d.BeginCycle()
	if st := d.EndCycle(1.5); st.Applied != 0 {
		t.Fatal("nil sink returned stats")
	}
	if d.RMSTrajectory() != nil {
		t.Fatal("nil sink has a trajectory")
	}
	if snap := d.Snapshot(); snap == nil || len(snap.Quarantined) != 0 {
		t.Fatal("nil snapshot")
	}
	if math.IsNaN(DivergeGrowthFactor) || DivergeGrowthFactor <= 1 {
		t.Fatal("growth factor must exceed 1")
	}
}
