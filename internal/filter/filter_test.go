package filter

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"phmse/internal/constraint"
	"phmse/internal/geom"
	"phmse/internal/mat"
	"phmse/internal/par"
	"phmse/internal/trace"
)

func ident(a int) int { return a }

func TestStateBasics(t *testing.T) {
	s := NewState([]geom.Vec3{{1, 2, 3}, {4, 5, 6}}, 9)
	if s.Dim() != 6 || s.Atoms() != 2 {
		t.Fatal("shape")
	}
	if s.Pos(1) != (geom.Vec3{4, 5, 6}) {
		t.Fatal("Pos")
	}
	s.SetPos(0, geom.Vec3{7, 8, 9})
	if s.X[0] != 7 || s.X[2] != 9 {
		t.Fatal("SetPos")
	}
	if s.Variance(0) != 27 {
		t.Fatalf("Variance = %g", s.Variance(0))
	}
	if s.MeanVariance() != 27 {
		t.Fatalf("MeanVariance = %g", s.MeanVariance())
	}
	c := s.Clone()
	c.X[0] = -1
	c.C.Set(0, 0, -1)
	if s.X[0] == -1 || s.C.At(0, 0) == -1 {
		t.Fatal("Clone aliases")
	}
	pos := s.Positions()
	if pos[0] != (geom.Vec3{7, 8, 9}) {
		t.Fatal("Positions")
	}
	s.ResetCovariance(4)
	if s.C.At(0, 0) != 4 || s.C.At(0, 1) != 0 {
		t.Fatal("ResetCovariance")
	}
	if s.String() == "" {
		t.Fatal("String")
	}
}

func TestMakeBatches(t *testing.T) {
	var cons []constraint.Constraint
	for i := 0; i < 10; i++ {
		cons = append(cons, constraint.Distance{I: i, J: i + 1, Target: 1, Sigma: 0.1})
	}
	batches, err := MakeBatches(cons, ident, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 3 {
		t.Fatalf("batches = %d, want 3 (4+4+2)", len(batches))
	}
	if batches[0].Dim() != 4 || batches[2].Dim() != 2 {
		t.Fatalf("dims %d %d", batches[0].Dim(), batches[2].Dim())
	}
	if batches[0].Len() != 4 {
		t.Fatalf("len %d", batches[0].Len())
	}
	// A 3-dim position constraint never splits across batches.
	mixed := []constraint.Constraint{
		constraint.Distance{I: 0, J: 1, Target: 1, Sigma: 1},
		constraint.Position{I: 0, Sigma: 1},
		constraint.Position{I: 1, Sigma: 1},
	}
	batches, err = MakeBatches(mixed, ident, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 2 || batches[0].Dim() != 4 || batches[1].Dim() != 3 {
		t.Fatalf("mixed batching: %d batches", len(batches))
	}
}

func TestMakeBatchesUnmappedAtom(t *testing.T) {
	cons := []constraint.Constraint{constraint.Distance{I: 0, J: 5, Target: 1, Sigma: 1}}
	_, err := MakeBatches(cons, func(a int) int {
		if a > 3 {
			return -1
		}
		return a
	}, 16)
	if err == nil {
		t.Fatal("no error for out-of-node atom")
	}
}

// For a linear Gaussian model the Kalman update must match the analytic
// Bayesian posterior: prior N(x0, v0) with observation z ~ N(x, r) gives
// posterior mean (v0·z + r·x0)/(v0+r) and variance v0·r/(v0+r).
func TestApplyLinearExact(t *testing.T) {
	s := NewState([]geom.Vec3{{1, 2, 3}}, 4) // v0 = 4 per coordinate
	u := &Updater{}
	obs := constraint.Position{I: 0, Target: geom.Vec3{2, 2, 5}, Sigma: 2} // r = 4
	batches, err := MakeBatches([]constraint.Constraint{obs}, ident, 16)
	if err != nil {
		t.Fatal(err)
	}
	handled, err := u.ApplyAll(s, batches)
	if err != nil {
		t.Fatal(err)
	}
	if handled != 3 {
		t.Fatalf("handled = %d", handled)
	}
	// Equal variances: posterior mean is the midpoint, variance halves.
	want := []float64{1.5, 2, 4}
	for c := 0; c < 3; c++ {
		if math.Abs(s.X[c]-want[c]) > 1e-10 {
			t.Fatalf("x[%d] = %g, want %g", c, s.X[c], want[c])
		}
		if math.Abs(s.C.At(c, c)-2) > 1e-10 {
			t.Fatalf("var[%d] = %g, want 2", c, s.C.At(c, c))
		}
	}
}

// The hierarchical decomposition rests on this: an observation of one
// uncorrelated part must leave the other part's estimate and covariance
// untouched, and the cross-covariance zero (paper §3).
func TestLocalUpdatePreservesUncorrelatedPart(t *testing.T) {
	s := NewState([]geom.Vec3{{0, 0, 0}, {3, 0, 0}, {10, 0, 0}, {14, 0, 0}}, 25)
	u := &Updater{}
	// Constraint touches only atoms 0 and 1 (coordinates 0..5).
	cons := []constraint.Constraint{constraint.Distance{I: 0, J: 1, Target: 4, Sigma: 0.5}}
	batches, err := MakeBatches(cons, ident, 16)
	if err != nil {
		t.Fatal(err)
	}
	before := s.Clone()
	if _, err := u.ApplyAll(s, batches); err != nil {
		t.Fatal(err)
	}
	// Atoms 2 and 3 (coordinates 6..11) unchanged.
	for d := 6; d < 12; d++ {
		if s.X[d] != before.X[d] {
			t.Fatalf("coordinate %d changed", d)
		}
		for e := 6; e < 12; e++ {
			if s.C.At(d, e) != before.C.At(d, e) {
				t.Fatalf("covariance (%d,%d) changed", d, e)
			}
		}
		for e := 0; e < 6; e++ {
			if s.C.At(d, e) != 0 || s.C.At(e, d) != 0 {
				t.Fatalf("cross-covariance (%d,%d) filled in", d, e)
			}
		}
	}
	// But atoms 0,1 moved toward satisfying the distance.
	got := geom.Dist(s.Pos(0), s.Pos(1))
	if math.Abs(got-4) >= math.Abs(3-4) {
		t.Fatalf("distance did not move toward target: %g", got)
	}
}

func TestApplyReducesUncertainty(t *testing.T) {
	s := NewState([]geom.Vec3{{0, 0, 0}, {2, 0, 0}}, 25)
	before := s.MeanVariance()
	u := &Updater{}
	batches, _ := MakeBatches([]constraint.Constraint{
		constraint.Distance{I: 0, J: 1, Target: 2.5, Sigma: 0.1},
	}, ident, 16)
	if _, err := u.ApplyAll(s, batches); err != nil {
		t.Fatal(err)
	}
	if s.MeanVariance() >= before {
		t.Fatalf("variance did not decrease: %g → %g", before, s.MeanVariance())
	}
}

func TestApplyParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pos := make([]geom.Vec3, 12)
	for i := range pos {
		pos[i] = geom.Vec3{rng.NormFloat64() * 5, rng.NormFloat64() * 5, rng.NormFloat64() * 5}
	}
	var cons []constraint.Constraint
	for i := 0; i+1 < len(pos); i++ {
		cons = append(cons, constraint.Distance{I: i, J: i + 1, Target: 3, Sigma: 0.2})
	}
	cons = append(cons, constraint.Position{I: 0, Target: pos[0], Sigma: 0.5})

	run := func(team *par.Team) *State {
		s := NewState(pos, 25)
		batches, err := MakeBatches(cons, ident, 8)
		if err != nil {
			t.Fatal(err)
		}
		u := &Updater{Team: team}
		if _, err := u.ApplyAll(s, batches); err != nil {
			t.Fatal(err)
		}
		return s
	}
	serial := run(nil)
	parallel := run(par.NewTeam(4))
	for d := range serial.X {
		if math.Abs(serial.X[d]-parallel.X[d]) > 1e-9 {
			t.Fatalf("x[%d]: %g vs %g", d, serial.X[d], parallel.X[d])
		}
	}
	if !serial.C.Equal(parallel.C, 1e-9) {
		t.Fatal("covariances differ")
	}
}

func TestSolveConvergesTriangle(t *testing.T) {
	// Anchor one atom, constrain a 3-4-5 triangle; start from a distorted
	// configuration and expect the distances to converge.
	init := []geom.Vec3{{0, 0, 0}, {2.5, 0.4, 0}, {0.3, 3.5, 0.2}}
	cons := []constraint.Constraint{
		constraint.Position{I: 0, Target: geom.Vec3{0, 0, 0}, Sigma: 0.01},
		constraint.Distance{I: 0, J: 1, Target: 3, Sigma: 0.01},
		constraint.Distance{I: 0, J: 2, Target: 4, Sigma: 0.01},
		constraint.Distance{I: 1, J: 2, Target: 5, Sigma: 0.01},
	}
	s := NewState(init, 0)
	s.ResetCovariance(100)
	res, err := Solve(s, cons, Control{Tol: 1e-6, MaxCycles: 200}, false)
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
	s := NewState([]geom.Vec3{{0, 0, 0}, {1, 0, 0}}, 25)
	cons := []constraint.Constraint{constraint.Distance{I: 0, J: 1, Target: 2, Sigma: 0.1}}
	if _, err := Solve(s, cons, Control{MaxCycles: 3, Rec: &rec}, false); err != nil {
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

// For linear models, combining two independently updated branches must
// exactly match applying both constraint sets sequentially (Figure 3).
func TestCombineMatchesSequentialLinear(t *testing.T) {
	prior := NewState([]geom.Vec3{{0, 0, 0}, {1, 1, 1}}, 9)
	obsA := constraint.Position{I: 0, Target: geom.Vec3{1, 0, 0}, Sigma: 1}
	obsB := constraint.Position{I: 1, Target: geom.Vec3{1, 2, 1}, Sigma: 0.5}

	apply := func(s *State, cs ...constraint.Constraint) *State {
		out := s.Clone()
		batches, err := MakeBatches(cs, ident, 16)
		if err != nil {
			t.Fatal(err)
		}
		u := &Updater{}
		if _, err := u.ApplyAll(out, batches); err != nil {
			t.Fatal(err)
		}
		return out
	}

	sequential := apply(prior, obsA, obsB)
	branchA := apply(prior, obsA)
	branchB := apply(prior, obsB)
	fused, err := Combine(prior, branchA, branchB)
	if err != nil {
		t.Fatal(err)
	}
	for d := range sequential.X {
		if math.Abs(sequential.X[d]-fused.X[d]) > 1e-8 {
			t.Fatalf("x[%d]: sequential %g fused %g", d, sequential.X[d], fused.X[d])
		}
	}
	if !sequential.C.Equal(fused.C, 1e-8) {
		t.Fatal("fused covariance differs from sequential")
	}
}

func TestCombineAllTournament(t *testing.T) {
	prior := NewState([]geom.Vec3{{0, 0, 0}}, 4)
	var branches []*State
	targets := []geom.Vec3{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	for _, tgt := range targets {
		b := prior.Clone()
		batches, _ := MakeBatches([]constraint.Constraint{
			constraint.Position{I: 0, Target: tgt, Sigma: 2},
		}, ident, 16)
		u := &Updater{}
		if _, err := u.ApplyAll(b, batches); err != nil {
			t.Fatal(err)
		}
		branches = append(branches, b)
	}
	fused, err := CombineAll(prior, branches)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential application of all three observations.
	seq := prior.Clone()
	var cons []constraint.Constraint
	for _, tgt := range targets {
		cons = append(cons, constraint.Position{I: 0, Target: tgt, Sigma: 2})
	}
	batches, _ := MakeBatches(cons, ident, 16)
	u := &Updater{}
	if _, err := u.ApplyAll(seq, batches); err != nil {
		t.Fatal(err)
	}
	for d := range seq.X {
		if math.Abs(seq.X[d]-fused.X[d]) > 1e-8 {
			t.Fatalf("x[%d]: %g vs %g", d, seq.X[d], fused.X[d])
		}
	}
	// Trivial cases.
	if one, err := CombineAll(prior, branches[:1]); err != nil || one.Dim() != 3 {
		t.Fatal("single branch")
	}
	if zero, err := CombineAll(prior, nil); err != nil || zero.Dim() != 3 {
		t.Fatal("zero branches")
	}
}

func TestCombineDimensionMismatch(t *testing.T) {
	a := NewState([]geom.Vec3{{0, 0, 0}}, 1)
	b := NewState([]geom.Vec3{{0, 0, 0}, {1, 1, 1}}, 1)
	if _, err := Combine(a, a, b); err == nil {
		t.Fatal("no error for dimension mismatch")
	}
}

func TestGatedConstraintSkippedWhenInactive(t *testing.T) {
	s := NewState([]geom.Vec3{{0, 0, 0}, {3, 0, 0}}, 25)
	bound := constraint.DistanceBound{I: 0, J: 1, Lower: 1, Upper: 5, Sigma: 0.1}
	batches, _ := MakeBatches([]constraint.Constraint{bound}, ident, 16)
	u := &Updater{}
	handled, err := u.ApplyAll(s, batches)
	if err != nil {
		t.Fatal(err)
	}
	if handled != 0 {
		t.Fatalf("inactive bound applied %d observations", handled)
	}
	// Violated bound must act.
	s2 := NewState([]geom.Vec3{{0, 0, 0}, {9, 0, 0}}, 25)
	handled, err = u.ApplyAll(s2, batches)
	if err != nil {
		t.Fatal(err)
	}
	if handled != 1 {
		t.Fatalf("violated bound handled = %d", handled)
	}
	if d := geom.Dist(s2.Pos(0), s2.Pos(1)); d >= 9 {
		t.Fatalf("bound did not pull atoms together: %g", d)
	}
}

func TestWeightedResidualZeroCases(t *testing.T) {
	s := NewState([]geom.Vec3{{0, 0, 0}}, 1)
	if WeightedResidual(s.Positions(), nil) != 0 {
		t.Fatal("empty constraint set")
	}
	// Inactive gated constraint contributes zero.
	s2 := NewState([]geom.Vec3{{0, 0, 0}, {3, 0, 0}}, 1)
	cons := []constraint.Constraint{constraint.DistanceBound{I: 0, J: 1, Lower: 1, Upper: 5, Sigma: 1}}
	if WeightedResidual(s2.Positions(), cons) != 0 {
		t.Fatal("inactive bound residual")
	}
}

func TestSolveBatchSizeInsensitivity(t *testing.T) {
	// The estimate the cycles converge to should not depend strongly on
	// batch size (the paper varies m for performance, not accuracy).
	init := []geom.Vec3{{0, 0, 0}, {2.5, 0.4, 0}, {0.3, 3.5, 0.2}, {3.1, 3.8, -0.1}}
	cons := []constraint.Constraint{
		constraint.Position{I: 0, Target: geom.Vec3{0, 0, 0}, Sigma: 0.01},
		constraint.Distance{I: 0, J: 1, Target: 3, Sigma: 0.02},
		constraint.Distance{I: 0, J: 2, Target: 4, Sigma: 0.02},
		constraint.Distance{I: 1, J: 2, Target: 5, Sigma: 0.02},
		constraint.Distance{I: 1, J: 3, Target: 4, Sigma: 0.02},
		constraint.Distance{I: 2, J: 3, Target: 3, Sigma: 0.02},
	}
	dists := func(batch int) []float64 {
		s := NewState(init, 0)
		if _, err := Solve(s, cons, Control{BatchSize: batch, Tol: 1e-7, MaxCycles: 300}, false); err != nil {
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

// Torsion innovations must wrap across the ±π branch cut: an observation
// of +175° with a prediction of −175° is a 10° error, not 350°.
func TestTorsionInnovationWraps(t *testing.T) {
	// Chain geometry with dihedral near +π: a-b-c-d with d rotated so the
	// dihedral is just below +π, observed just above −π (equivalently
	// −175°).
	target := -math.Pi + 5*math.Pi/180
	pos := []geom.Vec3{{0, 1, 0}, {0, 0, 0}, {1.5, 0, 0}, {1.5, -0.95, -0.1}}
	// Current geometry has dihedral near +175°.
	tor := constraint.Torsion{I: 0, J: 1, K: 2, L: 3, Target: target, Sigma: 0.05}
	cur := geom.Dihedral(pos[0], pos[1], pos[2], pos[3])
	if cur < 2.8 {
		t.Fatalf("test setup: dihedral %g not near +π", cur)
	}
	s := NewState(pos, 0.5)
	batches, err := MakeBatches([]constraint.Constraint{tor}, ident, 16)
	if err != nil {
		t.Fatal(err)
	}
	u := &Updater{}
	if _, err := u.ApplyAll(s, batches); err != nil {
		t.Fatal(err)
	}
	after := geom.Dihedral(s.Pos(0), s.Pos(1), s.Pos(2), s.Pos(3))
	// The estimate must move the short way: |after| stays near π, and the
	// atoms barely move (small innovation), instead of a 2π-sized jerk.
	moved := 0.0
	for i := range pos {
		moved += s.Pos(i).Sub(pos[i]).Norm()
	}
	if moved > 1.0 {
		t.Fatalf("2π jerk: atoms moved %g Å for a 10° error (dihedral %g → %g)", moved, cur, after)
	}
	// And the wrapped residual must be small-ish.
	diff := math.Abs(after - target)
	if diff > math.Pi {
		diff = 2*math.Pi - diff
	}
	if diff > math.Abs(cur-target-2*math.Pi)+0.2 && diff > 0.2 {
		t.Fatalf("dihedral did not move toward target: %g → %g (target %g)", cur, after, target)
	}
}

// Joseph-form and simple-form covariance updates agree in exact arithmetic
// for linear models; Joseph form must also keep the covariance PSD.
func TestJosephFormMatchesSimple(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pos := make([]geom.Vec3, 8)
	for i := range pos {
		pos[i] = geom.Vec3{rng.NormFloat64() * 4, rng.NormFloat64() * 4, rng.NormFloat64() * 4}
	}
	var cons []constraint.Constraint
	for i := 0; i+1 < len(pos); i++ {
		cons = append(cons, constraint.Distance{I: i, J: i + 1, Target: 3, Sigma: 0.2})
	}
	cons = append(cons, constraint.Position{I: 0, Target: pos[0], Sigma: 0.3})
	run := func(joseph bool) *State {
		s := NewState(pos, 25)
		batches, err := MakeBatches(cons, ident, 8)
		if err != nil {
			t.Fatal(err)
		}
		u := &Updater{Joseph: joseph}
		if _, err := u.ApplyAll(s, batches); err != nil {
			t.Fatal(err)
		}
		return s
	}
	simple := run(false)
	joseph := run(true)
	// Means agree to round-off (the covariance forms differ at machine
	// precision, which feeds into later batch gains).
	for d := range simple.X {
		if math.Abs(simple.X[d]-joseph.X[d]) > 1e-7 {
			t.Fatalf("x[%d]: %g vs %g", d, simple.X[d], joseph.X[d])
		}
	}
	if !simple.C.Equal(joseph.C, 1e-8) {
		t.Fatal("covariances differ beyond round-off")
	}
	// Joseph covariance is PSD: Cholesky succeeds after a tiny jitter-free
	// factorization attempt on C + 1e-12 I.
	c := joseph.C.Clone()
	for i := 0; i < c.Rows; i++ {
		c.Set(i, i, c.At(i, i)+1e-12)
	}
	if err := mat.Cholesky(c); err != nil {
		t.Fatalf("Joseph covariance not PSD: %v", err)
	}
}

// Failure injection: a batch with zero noise variance on duplicated
// observations makes the innovation covariance singular; Apply must report
// a wrapped ErrNotPositiveDefinite instead of corrupting the state.
func TestApplySingularInnovation(t *testing.T) {
	s := NewState([]geom.Vec3{{0, 0, 0}, {3, 0, 0}}, 25)
	dup := constraint.Distance{I: 0, J: 1, Target: 3, Sigma: 0} // zero variance
	batches, err := MakeBatches([]constraint.Constraint{dup, dup}, ident, 16)
	if err != nil {
		t.Fatal(err)
	}
	u := &Updater{}
	_, err = u.ApplyAll(s, batches)
	if !errors.Is(err, mat.ErrNotPositiveDefinite) {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
}

// Failure injection: NaN coordinates must surface as an error from the
// factorization, not silently propagate.
func TestApplyNaNState(t *testing.T) {
	s := NewState([]geom.Vec3{{0, 0, 0}, {3, 0, 0}}, 25)
	s.X[0] = math.NaN()
	batches, _ := MakeBatches([]constraint.Constraint{
		constraint.Distance{I: 0, J: 1, Target: 3, Sigma: 0.1},
	}, ident, 16)
	u := &Updater{}
	if _, err := u.ApplyAll(s, batches); err == nil {
		t.Fatal("NaN state accepted")
	}
}

// Innovation gating must protect the estimate from a grossly wrong
// observation while leaving consistent data in force.
func TestInnovationGating(t *testing.T) {
	pos := []geom.Vec3{{0, 0, 0}, {3, 0, 0}}
	good := []constraint.Constraint{
		constraint.Position{I: 0, Target: geom.Vec3{0, 0, 0}, Sigma: 0.1},
		constraint.Distance{I: 0, J: 1, Target: 3.1, Sigma: 0.1},
	}
	// An outlier claiming the atoms are 30 Å apart with high confidence.
	outlier := constraint.Distance{I: 0, J: 1, Target: 30, Sigma: 0.1}

	run := func(gate float64) (*State, int) {
		s := NewState(pos, 1)
		batches, err := MakeBatches(append(good, outlier), ident, 16)
		if err != nil {
			t.Fatal(err)
		}
		u := &Updater{GateSigma: gate}
		if _, err := u.ApplyAll(s, batches); err != nil {
			t.Fatal(err)
		}
		return s, u.Gated
	}

	ungated, n0 := run(0)
	if n0 != 0 {
		t.Fatalf("gating off but gated %d", n0)
	}
	if d := geom.Dist(ungated.Pos(0), ungated.Pos(1)); d < 5 {
		t.Fatalf("outlier should have dragged the ungated estimate: %g", d)
	}

	gated, n1 := run(5)
	if n1 != 1 {
		t.Fatalf("gated %d observations, want exactly the outlier", n1)
	}
	if d := geom.Dist(gated.Pos(0), gated.Pos(1)); math.Abs(d-3.1) > 0.2 {
		t.Fatalf("gated estimate distance %g, want ≈3.1", d)
	}
}
