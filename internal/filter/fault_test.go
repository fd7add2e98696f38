package filter

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"phmse/internal/constraint"
	"phmse/internal/faultinject"
	"phmse/internal/geom"
)

// chainProblem builds a well-determined 4-atom chain: anchored first atom
// plus unit distances, split into several one-constraint batches so the
// quarantine of one batch leaves plenty of information in the others.
func chainProblem() ([]geom.Vec3, constraint.Set) {
	pos := []geom.Vec3{{0, 0, 0}, {1, 0, 0}, {2, 0, 0}, {3, 0, 0}}
	cons := constraint.Of(
		constraint.Position{I: 0, Target: geom.Vec3{0, 0, 0}, Sigma: 0.01}.Row(),
		constraint.Distance{I: 0, J: 1, Target: 1, Sigma: 0.05}.Row(),
		constraint.Distance{I: 1, J: 2, Target: 1, Sigma: 0.05}.Row(),
		constraint.Distance{I: 2, J: 3, Target: 1, Sigma: 0.05}.Row(),
		constraint.Distance{I: 0, J: 2, Target: 2, Sigma: 0.05}.Row(),
		constraint.Distance{I: 1, J: 3, Target: 2, Sigma: 0.05}.Row())
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
		batches, err := makeBatches(constraint.Of(dup.Row(), dup.Row()), ident, 16)
		if err != nil {
			t.Fatal(err)
		}
		return s, batches
	}

	s, batches := mk()
	raw := &Updater{}
	if _, err := applyAll(raw, s, batches); !errors.Is(err, ErrIndefinite) {
		t.Fatalf("unguarded err = %v, want ErrIndefinite", err)
	}

	s, batches = mk()
	diag := &Diagnostics{}
	guarded := &Updater{Guard: true, Diag: diag}
	applied, err := applyAll(guarded, s, batches)
	if err != nil {
		t.Fatalf("guarded pass: %v", err)
	}
	if applied == 0 {
		t.Fatal("guarded pass applied nothing")
	}
	if !stateFinite(s) {
		t.Fatal("state not finite after ridge recovery")
	}
	if snap := diag.Snapshot(); snap.RidgeRetries == 0 {
		t.Fatal("ridge retries not recorded")
	}
}

// WithDefaults is idempotent, so a control block may be normalised by every
// entry point it passes through: zero selects the default, negative stays
// negative ("off") instead of collapsing to zero and being defaulted by the
// next application, positive is kept.
func TestControlDefaultsIdempotent(t *testing.T) {
	cases := []struct{ step, wantStep float64 }{
		{0, DefaultMaxStep},
		{-1, -1},
		{0.5, 0.5},
	}
	for _, c := range cases {
		once := Control{MaxStep: c.step}.WithDefaults()
		twice := once.WithDefaults()
		if once.MaxStep != c.wantStep {
			t.Errorf("WithDefaults(%g) = %g, want %g", c.step, once.MaxStep, c.wantStep)
		}
		if twice.MaxStep != once.MaxStep ||
			twice.diag != once.diag || twice.Team != once.Team || twice.BatchSize != once.BatchSize ||
			twice.MaxCycles != once.MaxCycles || twice.Tol != once.Tol || twice.InitVar != once.InitVar {
			t.Errorf("second WithDefaults moved the block: %+v -> %+v", once, twice)
		}
		if u := once.Updater(once.Team, "", 1); (u.MaxStep > 0) != (c.wantStep > 0) {
			t.Errorf("MaxStep %g reached the updater as %g", c.step, u.MaxStep)
		}
	}
}

// Concurrent subtrees record into one sink in whatever order they finish:
// the snapshot lists the records by (FirstCycle, Node, Batch), and a cycle
// names its least exclusion, whatever order they arrived in.
func TestDiagnosticsIndependentOfRecordingOrder(t *testing.T) {
	type exclusion struct {
		node   string
		batch  int
		reason string
	}
	cycles := [][]exclusion{
		{{"b", 1, ReasonIndefinite}, {"a", 2, ReasonIndefinite}, {"a", 0, ReasonNonFinite}, {"c", 0, ReasonIndefinite}},
		{{"d", 1, ReasonIndefinite}, {"a", 2, ReasonIndefinite}},
	}
	wantStats := []CycleStats{
		{Quarantined: 4, Reason: ReasonNonFinite, Node: "a", Batch: 0},
		{Quarantined: 2, Reason: ReasonIndefinite, Node: "a", Batch: 2},
	}
	wantOrder := []string{"a/0", "a/2", "b/1", "c/0", "d/1"}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := &Diagnostics{}
		for ci, excl := range cycles {
			d.BeginCycle()
			var wg sync.WaitGroup
			for _, i := range rng.Perm(len(excl)) {
				wg.Add(1)
				go func(e exclusion) {
					defer wg.Done()
					d.AddQuarantine(e.node, e.batch, ci+1, e.reason)
				}(excl[i])
			}
			wg.Wait()
			if got := d.EndCycle(1); got != wantStats[ci] {
				t.Fatalf("seed %d, cycle %d: stats %+v, want %+v", seed, ci+1, got, wantStats[ci])
			}
		}
		var order []string
		for _, r := range d.Snapshot().Quarantined {
			order = append(order, fmt.Sprintf("%s/%d", r.Node, r.Batch))
		}
		if fmt.Sprint(order) != fmt.Sprint(wantOrder) {
			t.Fatalf("seed %d: records %v, want %v", seed, order, wantOrder)
		}
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
