package filter

import (
	"fmt"
	"math"
	"testing"

	"phmse/internal/constraint"
	"phmse/internal/faultinject"
	"phmse/internal/geom"
	"phmse/internal/mat"
	"phmse/internal/par"
)

// stateFinite is the test oracle for "nothing non-finite got in": every
// entry of x and of all of C, both triangles.
func stateFinite(s *State) bool {
	if math.IsInf(maxAbs(0, s.X), 1) {
		return false
	}
	for i := 0; i < s.C.Rows; i++ {
		if math.IsInf(maxAbs(0, s.C.Row(i)), 1) {
			return false
		}
	}
	return true
}

// sameBits compares x and the lower triangle of C, the state as the solver
// keeps it, bit for bit.
func sameBits(a, b *State) error {
	for i := range a.X {
		if math.Float64bits(a.X[i]) != math.Float64bits(b.X[i]) {
			return fmt.Errorf("x[%d] = %v vs %v", i, a.X[i], b.X[i])
		}
	}
	for i := 0; i < a.C.Rows; i++ {
		for j := 0; j <= i; j++ {
			if math.Float64bits(a.C.At(i, j)) != math.Float64bits(b.C.At(i, j)) {
				return fmt.Errorf("C[%d][%d] = %v vs %v", i, j, a.C.At(i, j), b.C.At(i, j))
			}
		}
	}
	return nil
}

// The guard's decision is a pure function of the pending update and the
// running bounds: anything non-finite in it, or a bound that would cross
// finiteLimit, refuses — and a refusal leaves the bounds where they were.
func TestAdmitTable(t *testing.T) {
	const n, m = 5, 2
	fill := func(v float64) *mat.Mat {
		a := mat.New(n, m)
		for i := range a.Data {
			a.Data[i] = v
		}
		return a
	}
	with := func(a *mat.Mat, at int, v float64) *mat.Mat {
		a.Data[at] = v
		return a
	}
	dx := func(v float64) []float64 { return []float64{0.5, -1, v, 0.25, 0} }
	start := stateBound{x: 10, c: 100}
	cases := []struct {
		name  string
		start stateBound
		dx    []float64
		k, a  *mat.Mat
		want  stateBound // start when refused
		admit bool
	}{
		{"clean", start, dx(-3), fill(0.5), with(fill(2), 3, -4), stateBound{x: 13, c: 100 + m*0.5*4}, true},
		{"NaN in K", start, dx(0), with(fill(0.5), 7, math.NaN()), fill(2), start, false},
		{"Inf in A", start, dx(0), fill(0.5), with(fill(2), 0, math.Inf(-1)), start, false},
		{"NaN in dx", start, dx(math.NaN()), fill(0.5), fill(2), start, false},
		{"zero gain, Inf in A", start, dx(0), fill(0), with(fill(2), 1, math.Inf(1)), start, false},
		{"C bound would cross", stateBound{x: 10, c: 9e149}, dx(0), fill(1), fill(1e149), stateBound{x: 10, c: 9e149}, false},
		{"x bound would cross", stateBound{x: 9.5e149, c: 1}, dx(6e149), fill(1), fill(1), stateBound{x: 9.5e149, c: 1}, false},
		{"product overflows", start, dx(0), fill(1e200), fill(1e200), start, false},
	}
	for _, c := range cases {
		b := c.start
		if got := b.admit(c.dx, c.k, c.a); got != c.admit || b != c.want {
			t.Errorf("%s: admit = %v, bounds %+v; want %v, %+v", c.name, got, b, c.admit, c.want)
		}
	}
}

// A batch the guard refuses must leave x and C exactly as they were — the
// refusal happens before anything is written — be recorded as a non_finite
// quarantine and rollback, and not disturb the batches after it.
func TestRefusedBatchLeavesStateBitIdentical(t *testing.T) {
	oneBatch := func(c constraint.Row) []*Batch {
		bs, err := makeBatches(constraint.Of(c), ident, 16)
		if err != nil {
			t.Fatal(err)
		}
		return bs
	}
	// The bad batch observes atom 1, at σ² = 0.01 per coordinate.
	cases := []struct {
		name string
		bad  constraint.Row
		// corrupt, when set, rewrites the bad batch's linearisation (a
		// faultinject.Linearized hook) before the update uses it.
		corrupt  func(lin *constraint.Lin)
		hugeVar3 bool // atom 3 enters with a variance just under finiteLimit
	}{
		// H = Inf makes A = C·Hᵀ infinite and K = A·S⁻¹ = Inf/Inf NaN: the
		// position's x row alone, its one Jacobian entry made infinite.
		{name: "Inf in A, NaN in K", bad: constraint.Position{I: 1, Target: geom.Vec3{1, 0, 0}, Sigma: 0.1}.Row(),
			corrupt: func(lin *constraint.Lin) {
				lin.Z, lin.R, lin.H, lin.Wrap = lin.Z[:1], lin.R[:1], lin.H[:1], lin.Wrap[:1]
				lin.Jac.Reset()
				lin.Jac.Add(3, math.Inf(1))
				lin.Jac.EndRow()
			}},
		// A NaN observation leaves K and A finite and poisons dx alone.
		{name: "NaN in dx", bad: constraint.Position{I: 1, Target: geom.Vec3{math.NaN(), 0, 0}, Sigma: 0.1}.Row()},
		// Finite all the way — the true result would be finite too — but
		// max|C| + m·max|K|·max|A| ≈ 1.8e150 leaves the provable range.
		{name: "C bound would cross", bad: constraint.Distance{I: 2, J: 3, Target: 1, Sigma: 0.05}.Row(), hugeVar3: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pos, cons := chainProblem()
			s := NewState(pos, 4)
			if c.hugeVar3 {
				for d := 9; d < 12; d++ {
					s.C.Set(d, d, 9e149)
				}
			}
			diag := &Diagnostics{}
			u := &Updater{Guard: true, Diag: diag, Team: par.NewTeam(2)}
			if _, err := applyAll(u, s, oneBatch(cons.Row(1))); err != nil {
				t.Fatal(err)
			}
			before := s.Clone()

			if c.corrupt != nil {
				faultinject.Set(&faultinject.Hooks{Linearized: func(_ faultinject.Site, lin *constraint.Lin) { c.corrupt(lin) }})
			}
			applied, err := applyAll(u, s, oneBatch(c.bad))
			faultinject.Reset()
			if err != nil || applied != 0 {
				t.Fatalf("refused batch: applied %d, err %v", applied, err)
			}
			if err := sameBits(s, before); err != nil {
				t.Fatalf("refused batch wrote the state: %v", err)
			}
			snap := diag.Snapshot()
			if snap.Rollbacks != 1 || len(snap.Quarantined) != 1 || snap.Quarantined[0].Reason != ReasonNonFinite {
				t.Fatalf("diagnostics = %+v", snap)
			}

			if applied, err = applyAll(u, s, oneBatch(cons.Row(2))); err != nil || applied != 1 {
				t.Fatalf("batch after the refusal: applied %d, err %v", applied, err)
			}
			if sameBits(s, before) == nil {
				t.Fatal("batch after the refusal changed nothing")
			}
			if c.hugeVar3 {
				// Only atom 3's own variance is huge; everything else the
				// pass produced is ordinary.
				s.C.View(9, 9, 3, 3).Zero()
			}
			if !stateFinite(s) || s.C.MaxAbs() > 1e3 {
				t.Fatalf("state after the pass: max|C| = %g", s.C.MaxAbs())
			}
		})
	}
}

// Between the batches of a pass only the lower triangle of C exists: a
// strict upper triangle full of NaN on entry must change nothing in the
// lower triangle, and must still be there, bit for bit, on return. Guard
// off, so nothing but the kernels looks at C.
func TestUpperTriangleNeverRead(t *testing.T) {
	for _, procs := range []int{1, 2, 3} {
		pos, cons := chainProblem()
		batches, err := makeBatches(cons, ident, 2)
		if err != nil {
			t.Fatal(err)
		}
		u := &Updater{Team: par.NewTeam(procs)}
		want := NewState(perturbedChain(), 4)
		// One batch first, so the prior is dense rather than diagonal.
		if _, err := applyAll(u, want, batches[:1]); err != nil {
			t.Fatal(err)
		}
		got := want.Clone()
		poisonUpper(got)
		if _, err := applyAll(u, want, batches[1:]); err != nil {
			t.Fatal(err)
		}
		if _, err := applyAll(u, got, batches[1:]); err != nil {
			t.Fatal(err)
		}
		if err := sameBits(got, want); err != nil {
			t.Fatalf("procs=%d (%d atoms): %v", procs, len(pos), err)
		}
		if err := upperPoisoned(got); err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
	}
}
