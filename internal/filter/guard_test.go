package filter

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"phmse/internal/constraint"
	"phmse/internal/geom"
	"phmse/internal/mat"
	"phmse/internal/par"
	"phmse/internal/solvererr"
	"phmse/internal/trace"
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

func sameBits(a, b *State) error {
	for i := range a.X {
		if math.Float64bits(a.X[i]) != math.Float64bits(b.X[i]) {
			return fmt.Errorf("x[%d] = %v vs %v", i, a.X[i], b.X[i])
		}
	}
	for i := 0; i < a.C.Rows; i++ {
		for j := 0; j < a.C.Cols; j++ {
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
		name    string
		start   stateBound
		dx      []float64
		k, a, w *mat.Mat
		want    stateBound // start when refused
		admit   bool
	}{
		{"clean", start, dx(-3), fill(0.5), with(fill(2), 3, -4), nil, stateBound{x: 13, c: 100 + m*0.5*4}, true},
		{"clean Joseph", start, dx(0), fill(0.5), fill(2), fill(-3), stateBound{x: 11, c: 100 + 2*m*0.5*2 + m*3*3}, true},
		{"NaN in K", start, dx(0), with(fill(0.5), 7, math.NaN()), fill(2), nil, start, false},
		{"Inf in A", start, dx(0), fill(0.5), with(fill(2), 0, math.Inf(-1)), nil, start, false},
		{"NaN in dx", start, dx(math.NaN()), fill(0.5), fill(2), nil, start, false},
		{"Inf in K·L", start, dx(0), fill(0.5), fill(2), with(fill(1), 9, math.Inf(1)), start, false},
		{"zero gain, Inf in A", start, dx(0), fill(0), with(fill(2), 1, math.Inf(1)), nil, start, false},
		{"C bound would cross", stateBound{x: 10, c: 9e149}, dx(0), fill(1), fill(1e149), nil, stateBound{x: 10, c: 9e149}, false},
		{"x bound would cross", stateBound{x: 9.5e149, c: 1}, dx(6e149), fill(1), fill(1), nil, stateBound{x: 9.5e149, c: 1}, false},
		{"product overflows", start, dx(0), fill(1e200), fill(1e200), nil, start, false},
	}
	for _, c := range cases {
		b := c.start
		if got := b.admit(c.dx, c.k, c.a, c.w); got != c.admit || b != c.want {
			t.Errorf("%s: admit = %v, bounds %+v; want %v, %+v", c.name, got, b, c.admit, c.want)
		}
	}
}

// faulty is a one-row observation of atom i's x coordinate whose
// linearization can be corrupted on demand.
type faulty struct {
	i        int
	jac, obs float64
}

func (f *faulty) Atoms() []int { return []int{f.i} }
func (f *faulty) Dim() int     { return 1 }

func (f *faulty) Eval(pos []geom.Vec3, h []float64, jac [][]float64) {
	h[0] = pos[0][0]
	jac[0][0] = f.jac
}

func (f *faulty) Observed(z, sigma2 []float64) {
	z[0] = f.obs
	sigma2[0] = 0.01
}

// A batch the guard refuses must leave x and C exactly as they were — the
// refusal happens before anything is written — be recorded as a non_finite
// quarantine and rollback, and not disturb the batches after it.
func TestRefusedBatchLeavesStateBitIdentical(t *testing.T) {
	oneBatch := func(c constraint.Constraint) []*Batch {
		bs, err := MakeBatches([]constraint.Constraint{c}, ident, 16)
		if err != nil {
			t.Fatal(err)
		}
		return bs
	}
	cases := []struct {
		name     string
		bad      constraint.Constraint
		hugeVar3 bool // atom 3 enters with a variance just under finiteLimit
	}{
		// H = Inf makes A = C·Hᵀ infinite and K = A·S⁻¹ = Inf/Inf NaN.
		{name: "Inf in A, NaN in K", bad: &faulty{i: 1, jac: math.Inf(1), obs: 1}},
		// A NaN observation leaves K and A finite and poisons dx alone.
		{name: "NaN in dx", bad: &faulty{i: 1, jac: 1, obs: math.NaN()}},
		// Finite all the way — the true result would be finite too — but
		// max|C| + m·max|K|·max|A| ≈ 1.8e150 leaves the provable range.
		{name: "C bound would cross", bad: constraint.Distance{I: 2, J: 3, Target: 1, Sigma: 0.05}, hugeVar3: true},
	}
	for _, joseph := range []bool{false, true} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/joseph=%v", c.name, joseph), func(t *testing.T) {
				pos, cons := chainProblem()
				s := NewState(pos, 4)
				if c.hugeVar3 {
					for d := 9; d < 12; d++ {
						s.C.Set(d, d, 9e149)
					}
				}
				diag := &Diagnostics{}
				u := &Updater{Guard: true, Diag: diag, Joseph: joseph, Team: par.NewTeam(2)}
				if _, err := u.ApplyAll(s, oneBatch(cons[1])); err != nil {
					t.Fatal(err)
				}
				before := s.Clone()

				applied, err := u.ApplyAll(s, oneBatch(c.bad))
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

				if applied, err = u.ApplyAll(s, oneBatch(cons[2])); err != nil || applied != 1 {
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
}

// Between the batches of a pass only the lower triangle of C exists: a
// strict upper triangle full of NaN on entry must change nothing in the
// lower triangle and must be gone — overwritten by the one closing mirror
// — on return. Guard off, so nothing but the kernels looks at C.
func TestUpperTriangleNeverRead(t *testing.T) {
	for _, joseph := range []bool{false, true} {
		for _, procs := range []int{1, 2, 3} {
			pos, cons := chainProblem()
			batches, err := MakeBatches(cons, ident, 2)
			if err != nil {
				t.Fatal(err)
			}
			u := &Updater{Team: par.NewTeam(procs), Joseph: joseph}
			want := NewState(perturbedChain(), 4)
			// One batch first, so the prior is dense rather than diagonal.
			if _, err := u.ApplyAll(want, batches[:1]); err != nil {
				t.Fatal(err)
			}
			got := want.Clone()
			for i := 0; i < got.Dim(); i++ {
				for j := i + 1; j < got.Dim(); j++ {
					got.C.Set(i, j, math.NaN())
				}
			}
			if _, err := u.ApplyAll(want, batches[1:]); err != nil {
				t.Fatal(err)
			}
			if _, err := u.ApplyAll(got, batches[1:]); err != nil {
				t.Fatal(err)
			}
			if err := sameBits(got, want); err != nil {
				t.Fatalf("joseph=%v procs=%d (%d atoms): %v", joseph, procs, len(pos), err)
			}
		}
	}
}

// A non-finite prior is caught by the entry check of the pass, once: every
// batch is quarantined non_finite without assembling, factorizing or
// multiplying anything, and the no-progress policy fails the solve after
// the first cycle with the typed error.
func TestNonFinitePriorRefusedWithoutWork(t *testing.T) {
	_, cons := chainProblem()
	s := NewState(perturbedChain(), 100)
	s.X[4] = math.NaN()
	rec := &trace.Collector{}
	res, err := Solve(s, cons, Control{BatchSize: 1, Rec: rec}, false)
	if !errors.Is(err, solvererr.ErrNonFinite) {
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
	if len(snap.Quarantined) != len(cons) {
		t.Fatalf("quarantined %d of %d batches", len(snap.Quarantined), len(cons))
	}
	for _, q := range snap.Quarantined {
		if q.Reason != ReasonNonFinite {
			t.Fatalf("record = %+v", q)
		}
	}
}
