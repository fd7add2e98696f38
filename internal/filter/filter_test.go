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
	"phmse/internal/sparse"
)

func ident(a int) int { return a }

// applyAll applies every batch in order from a scan of s, as a leaf's pass
// does.
// makeBatches batches every row of cons.
func makeBatches(cons constraint.Set, localOf func(int) int, batchSize int) ([]*Batch, error) {
	return MakeBatches(&cons, cons.AllRows(), localOf, batchSize)
}

func applyAll(u *Updater, s *State, batches []*Batch) (int, error) {
	n, _, err := u.ApplyLower(s, batches, u.JoinScan(Bound{}, s))
	return n, err
}

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
	if s.String() == "" {
		t.Fatal("String")
	}
}

func TestMakeBatches(t *testing.T) {
	var cons constraint.Set
	for i := 0; i < 10; i++ {
		cons.Add(constraint.Distance{I: i, J: i + 1, Target: 1, Sigma: 0.1}.Row())
	}
	batches, err := makeBatches(cons, ident, 4)
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
	mixed := constraint.Of(
		constraint.Distance{I: 0, J: 1, Target: 1, Sigma: 1}.Row(),
		constraint.Position{I: 0, Sigma: 1}.Row(),
		constraint.Position{I: 1, Sigma: 1}.Row())
	batches, err = makeBatches(mixed, ident, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 2 || batches[0].Dim() != 4 || batches[1].Dim() != 3 {
		t.Fatalf("mixed batching: %d batches", len(batches))
	}
}

func TestMakeBatchesUnmappedAtom(t *testing.T) {
	cons := constraint.Of(constraint.Distance{I: 0, J: 5, Target: 1, Sigma: 1}.Row())
	_, err := makeBatches(cons, func(a int) int {
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
	batches, err := makeBatches(constraint.Of(obs.Row()), ident, 16)
	if err != nil {
		t.Fatal(err)
	}
	handled, err := applyAll(u, s, batches)
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
	cons := constraint.Of(constraint.Distance{I: 0, J: 1, Target: 4, Sigma: 0.5}.Row())
	batches, err := makeBatches(cons, ident, 16)
	if err != nil {
		t.Fatal(err)
	}
	before := s.Clone()
	if _, err := applyAll(u, s, batches); err != nil {
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
	batches, _ := makeBatches(constraint.Of(
		constraint.Distance{I: 0, J: 1, Target: 2.5, Sigma: 0.1}.Row()), ident, 16)
	if _, err := applyAll(u, s, batches); err != nil {
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
	var cons constraint.Set
	for i := 0; i+1 < len(pos); i++ {
		cons.Add(constraint.Distance{I: i, J: i + 1, Target: 3, Sigma: 0.2}.Row())
	}
	cons.Add(constraint.Position{I: 0, Target: pos[0], Sigma: 0.5}.Row())

	run := func(team *par.Team) *State {
		s := NewState(pos, 25)
		batches, err := makeBatches(cons, ident, 8)
		if err != nil {
			t.Fatal(err)
		}
		u := &Updater{Team: team}
		if _, err := applyAll(u, s, batches); err != nil {
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

// For linear models, combining two independently updated branches must
// exactly match applying both constraint sets sequentially (Figure 3).
func TestCombineMatchesSequentialLinear(t *testing.T) {
	prior := NewState([]geom.Vec3{{0, 0, 0}, {1, 1, 1}}, 9)
	obsA := constraint.Position{I: 0, Target: geom.Vec3{1, 0, 0}, Sigma: 1}
	obsB := constraint.Position{I: 1, Target: geom.Vec3{1, 2, 1}, Sigma: 0.5}

	apply := func(s *State, cs ...constraint.Row) *State {
		out := s.Clone()
		batches, err := makeBatches(constraint.Of(cs...), ident, 16)
		if err != nil {
			t.Fatal(err)
		}
		u := &Updater{}
		if _, err := applyAll(u, out, batches); err != nil {
			t.Fatal(err)
		}
		return out
	}

	sequential := apply(prior, obsA.Row(), obsB.Row())
	branchA := apply(prior, obsA.Row())
	branchB := apply(prior, obsB.Row())
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
		batches, _ := makeBatches(constraint.Of(
			constraint.Position{I: 0, Target: tgt, Sigma: 2}.Row()), ident, 16)
		u := &Updater{}
		if _, err := applyAll(u, b, batches); err != nil {
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
	var cons constraint.Set
	for _, tgt := range targets {
		cons.Add(constraint.Position{I: 0, Target: tgt, Sigma: 2}.Row())
	}
	batches, _ := makeBatches(cons, ident, 16)
	u := &Updater{}
	if _, err := applyAll(u, seq, batches); err != nil {
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
	batches, _ := makeBatches(constraint.Of(bound.Row()), ident, 16)
	u := &Updater{}
	handled, err := applyAll(u, s, batches)
	if err != nil {
		t.Fatal(err)
	}
	if handled != 0 {
		t.Fatalf("inactive bound applied %d observations", handled)
	}
	// Violated bound must act.
	s2 := NewState([]geom.Vec3{{0, 0, 0}, {9, 0, 0}}, 25)
	handled, err = applyAll(u, s2, batches)
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
	if WeightedResidual(s.Positions(), &constraint.Set{}) != 0 {
		t.Fatal("empty constraint set")
	}
	// Inactive gated constraint contributes zero.
	s2 := NewState([]geom.Vec3{{0, 0, 0}, {3, 0, 0}}, 1)
	cons := constraint.Of(constraint.DistanceBound{I: 0, J: 1, Lower: 1, Upper: 5, Sigma: 1}.Row())
	if WeightedResidual(s2.Positions(), &cons) != 0 {
		t.Fatal("inactive bound residual")
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
	batches, err := makeBatches(constraint.Of(tor.Row()), ident, 16)
	if err != nil {
		t.Fatal(err)
	}
	u := &Updater{}
	if _, err := applyAll(u, s, batches); err != nil {
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

// Failure injection: a batch with zero noise variance on duplicated
// observations makes the innovation covariance singular; Apply must report
// a wrapped ErrNotPositiveDefinite instead of corrupting the state.
func TestApplySingularInnovation(t *testing.T) {
	s := NewState([]geom.Vec3{{0, 0, 0}, {3, 0, 0}}, 25)
	dup := constraint.Distance{I: 0, J: 1, Target: 3, Sigma: 0} // zero variance
	batches, err := makeBatches(constraint.Of(dup.Row(), dup.Row()), ident, 16)
	if err != nil {
		t.Fatal(err)
	}
	u := &Updater{}
	_, err = applyAll(u, s, batches)
	if !errors.Is(err, mat.ErrNotPositiveDefinite) {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
}

// Failure injection: NaN coordinates must surface as an error from the
// factorization, not silently propagate.
func TestApplyNaNState(t *testing.T) {
	s := NewState([]geom.Vec3{{0, 0, 0}, {3, 0, 0}}, 25)
	s.X[0] = math.NaN()
	batches, _ := makeBatches(constraint.Of(
		constraint.Distance{I: 0, J: 1, Target: 3, Sigma: 0.1}.Row()), ident, 16)
	u := &Updater{}
	if _, err := applyAll(u, s, batches); err == nil {
		t.Fatal("NaN state accepted")
	}
}

// maxAbsLoop is the branching scan maxAbs replaced, kept as its reference.
func maxAbsLoop(m float64, vs []float64) float64 {
	for _, v := range vs {
		if a := math.Abs(v); !(a <= m) {
			if a != a {
				return math.Inf(1)
			}
			m = a
		}
	}
	return m
}

// TestMaxAbsMatchesLoop: the branch-free scan, in every form the host has,
// returns what the loop does, bit for bit, on lengths 0–200 — the vector
// body's multiples of 16 and every tail — and magnitudes with signed zeros,
// subnormals and infinities mixed in, from any starting bound; a NaN at any
// position, of either sign and any payload, reports +Inf — so admit makes
// the decisions it always made.
func TestMaxAbsMatchesLoop(t *testing.T) {
	forms := []string{"Go"}
	if mat.VectorUnit() {
		forms = append(forms, "ymm")
	}
	t.Logf("maxAbs forms run on this host: %v", forms)
	rng := rand.New(rand.NewSource(29))
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1)}
	nans := []float64{math.NaN(), math.Copysign(math.NaN(), -1), math.Float64frombits(0x7ff0_0000_0000_0001), math.Float64frombits(0xfff8_dead_beef_0001)}
	for trial := 0; trial < 4000; trial++ {
		vs := make([]float64, trial%201)
		for i := range vs {
			vs[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
			if rng.Intn(8) == 0 {
				vs[i] = specials[rng.Intn(len(specials))]
			}
		}
		m := []float64{0, 1e-300, rng.ExpFloat64(), math.Inf(1)}[trial%4]
		want := maxAbsLoop(m, vs)
		nan := -1
		if len(vs) > 0 {
			nan = rng.Intn(len(vs))
		}
		for _, form := range forms {
			restore := mat.PinKernels(form == "ymm", false)
			if got := maxAbs(m, vs); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: maxAbs(%v, %v) = %v, loop %v", form, m, vs, got, want)
			}
			if nan >= 0 {
				was := vs[nan]
				vs[nan] = nans[rng.Intn(len(nans))]
				if got := maxAbs(m, vs); !math.IsInf(got, 1) {
					t.Fatalf("%s: maxAbs(%v, %v) = %v with a NaN, want +Inf", form, m, vs, got)
				}
				vs[nan] = was
			}
			restore()
		}
	}
}

// TestKeptPlanFollowsThePattern: a batch rebuilds its Jacobian every cycle
// through its one builder, which keeps the d-s gather plan of the pattern
// it last built. Here the pattern changes between cycles both ways it can —
// a DistanceBound that switches active and back, and two atoms aligned on
// an axis, whose distance row then has exact zeros and so fewer entries —
// and holds in others; each cycle's C·Hᵀ equals, bit for bit, the product
// through a freshly built matrix of the same rows, on every d-s form the
// host has.
func TestKeptPlanFollowsThePattern(t *testing.T) {
	cons := constraint.Of(
		constraint.Distance{I: 0, J: 1, Target: 1.5, Sigma: 0.1}.Row(),
		constraint.DistanceBound{I: 2, J: 9, Upper: 4, Sigma: 0.1}.Row(),
		constraint.Distance{I: 3, J: 4, Target: 1.5, Sigma: 0.1}.Row(),
		constraint.Distance{I: 1, J: 7, Target: 2.5, Sigma: 0.1}.Row(),
		constraint.Angle{I: 5, J: 6, K: 8, Target: 2, Sigma: 0.1}.Row())
	batches, err := makeBatches(cons, ident, 16)
	if err != nil || len(batches) != 1 {
		t.Fatalf("%d batches, %v", len(batches), err)
	}
	b := batches[0]
	rng := rand.New(rand.NewSource(39))
	base := make([]geom.Vec3, 10)
	for i := range base {
		base[i] = geom.Vec3{rng.Float64() * 3, rng.Float64() * 3, rng.Float64() * 3}
	}
	base[9] = base[2].Add(geom.Vec3{5, 1, 0.5}) // the bound violated: active
	inactive := func(p []geom.Vec3) { p[9] = base[2].Add(geom.Vec3{1, 1, 0}) }
	aligned := func(p []geom.Vec3) { p[4] = p[3].Add(geom.Vec3{1.4, 0, 0}) }
	cycles := []struct {
		name      string
		move      []func([]geom.Vec3)
		rows, nnz int
	}{
		{"active", nil, 5, 33},
		{"active again", nil, 5, 33},
		{"bound inactive", []func([]geom.Vec3){inactive}, 4, 27},
		{"inactive again", []func([]geom.Vec3){inactive}, 4, 27},
		{"aligned", []func([]geom.Vec3){aligned}, 5, 29},
		{"aligned, inactive", []func([]geom.Vec3){aligned, inactive}, 4, 23},
		{"active", nil, 5, 33},
	}
	for _, vec := range []bool{false, true} {
		if vec && !mat.VectorUnit() {
			t.Log("no vector unit on this host: the ymm d-s form not run")
			continue
		}
		restore := mat.PinKernels(vec, false)
		for i, cy := range cycles {
			pos := append([]geom.Vec3(nil), base...)
			for _, f := range cy.move {
				f(pos)
			}
			s := NewState(pos, 1)
			n := s.Dim()
			for r := 0; r < n; r++ {
				for c := 0; c <= r; c++ {
					s.C.Set(r, c, rng.NormFloat64())
				}
			}
			lin := b.assemble(s)
			jac := lin.Jac.Build()
			m := len(lin.Z)
			if m != cy.rows || jac.NNZ() != cy.nnz {
				t.Fatalf("cycle %d (%s): %d rows, %d entries; want %d, %d", i, cy.name, m, jac.NNZ(), cy.rows, cy.nnz)
			}
			fresh := sparse.NewBuilder(n)
			for j := 0; j < m; j++ {
				fresh.AddRow(jac.Row(j))
			}
			got, want := mat.New(n, m), mat.New(n, m)
			jac.DenseMulTSymPar(par.NewTeam(1+i%3), got, s.C)
			fresh.Build().DenseMulTSymPar(par.NewTeam(1), want, s.C)
			for r := 0; r < n; r++ {
				for j := 0; j < m; j++ {
					if g, w := got.At(r, j), want.At(r, j); math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("vector=%v cycle %d (%s): (%d,%d) = %v, want %v", vec, i, cy.name, r, j, g, w)
					}
				}
			}
		}
		restore()
	}
}

// A batch reads its constraints through the set pointer MakeBatches was
// given: a set stored there — a value set rebinding a prepared tree — is
// what the batch's next assemble linearizes, with no batch built again.
func TestBatchesAliasTheirRun(t *testing.T) {
	rows := []constraint.Row{
		constraint.Distance{I: 0, J: 1, Target: 1.5, Sigma: 0.1}.Row(),
		constraint.Distance{I: 1, J: 2, Target: 1.5, Sigma: 0.1}.Row(),
		constraint.Distance{I: 0, J: 2, Target: 2.5, Sigma: 0.1}.Row(),
	}
	cons := constraint.Of(rows...)
	batches, err := MakeBatches(&cons, cons.AllRows(), ident, 2)
	if err != nil || len(batches) != 2 {
		t.Fatalf("%d batches, %v", len(batches), err)
	}
	s := NewState([]geom.Vec3{{0, 0, 0}, {1, 0, 0}, {1, 1, 0}}, 1)
	rows[2] = constraint.Distance{I: 0, J: 2, Target: 3, Sigma: 0.2}.Row()
	cons = constraint.Of(rows...)
	lin := batches[1].assemble(s)
	if sigma := 0.2; lin.Z[0] != 3 || lin.R[0] != sigma*sigma {
		t.Fatalf("the batch read z = %g, σ² = %g: not the rewritten constraint", lin.Z[0], lin.R[0])
	}
}

// residualFresh is WeightedResidual evaluated into a fresh linearisation
// for every constraint: the reference the scratch-reusing form must match
// bit for bit.
func residualFresh(all []geom.Vec3, cons *constraint.Set) float64 {
	sum, count := 0.0, cons.ScalarDim()
	for r := range cons.Len() {
		var lin constraint.Lin
		cons.Eval([]int32{int32(r)}, nil, geom.Flat(all), &lin)
		own := 0.0
		for d := range lin.H {
			diff := lin.Z[d] - lin.H[d]
			if lin.Wrap[d] {
				diff = wrapAngle(diff)
			}
			if lin.R[d] > 0 {
				own += diff * diff / lin.R[d]
			}
		}
		sum += own
	}
	if count == 0 {
		return 0
	}
	return math.Sqrt(sum / float64(count))
}

// WeightedResidual evaluates every constraint into one grown scratch: the
// same bits as fresh buffers per constraint, over every constraint type in
// mixed order (narrow after wide, a bound active and one inactive, a
// periodic row), allocating per constraint only what the constraint's own
// methods return.
func TestWeightedResidualMatchesFreshBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	pos := make([]geom.Vec3, 8)
	for i := range pos {
		pos[i] = geom.Vec3{rng.NormFloat64() * 3, rng.NormFloat64() * 3, rng.NormFloat64() * 3}
	}
	cons := constraint.Of(
		constraint.Position{I: 0, Target: geom.Vec3{1, 2, 3}, Sigma: 0.3}.Row(),
		constraint.Distance{I: 1, J: 2, Target: 1.5, Sigma: 0.1}.Row(),
		constraint.Torsion{I: 0, J: 1, K: 2, L: 3, Target: 3.1, Sigma: 0.2}.Row(),
		constraint.DistanceBound{I: 4, J: 5, Upper: 0.5, Sigma: 0.1}.Row(),
		constraint.DistanceBound{I: 4, J: 6, Upper: 1e6, Sigma: 0.1}.Row(),
		constraint.Angle{I: 5, J: 6, K: 7, Target: 2, Sigma: 0.1}.Row(),
		constraint.Position{I: 7, Target: geom.Vec3{-1, 0, 1}, Sigma: 0.5}.Row(),
		constraint.Distance{I: 3, J: 7, Target: 4, Sigma: 0.2}.Row())
	got, want := WeightedResidual(pos, &cons), residualFresh(pos, &cons)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("residual %v, fresh buffers %v", got, want)
	}
	// Past the scratch's growth to the widest constraint, a constraint
	// costs nothing.
	var tenfold constraint.Set
	for k := 0; k < 10; k++ {
		tenfold.Append(&cons)
	}
	once := testing.AllocsPerRun(20, func() { WeightedResidual(pos, &cons) })
	ten := testing.AllocsPerRun(20, func() { WeightedResidual(pos, &tenfold) })
	if extra := ten - once; extra > float64(9*(cons.Len()+1)) {
		t.Fatalf("%v allocations for %d constraints, %v for ten times as many", once, cons.Len(), ten)
	}
}
