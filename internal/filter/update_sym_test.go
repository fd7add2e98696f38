package filter

import (
	"math"
	"math/rand"
	"testing"

	"phmse/internal/constraint"
	"phmse/internal/geom"
	"phmse/internal/mat"
	"phmse/internal/par"
)

// randChain builds a loose chain of atoms with noisy distance constraints —
// a small generic workload for the update path.
func randChain(rng *rand.Rand, atoms int) ([]geom.Vec3, []constraint.Constraint) {
	pos := make([]geom.Vec3, atoms)
	for i := range pos {
		pos[i] = geom.Vec3{float64(i) * 1.5, rng.NormFloat64() * 0.2, rng.NormFloat64() * 0.2}
	}
	var cons []constraint.Constraint
	for i := 0; i+1 < atoms; i++ {
		d := pos[i].Sub(pos[i+1]).Norm()
		cons = append(cons, constraint.Distance{I: i, J: i + 1, Target: d * (1 + 0.01*rng.NormFloat64()), Sigma: 0.1})
	}
	for i := 0; i+3 < atoms; i += 2 {
		d := pos[i].Sub(pos[i+3]).Norm()
		cons = append(cons, constraint.Distance{I: i, J: i + 3, Target: d * (1 + 0.01*rng.NormFloat64()), Sigma: 0.2})
	}
	return pos, cons
}

// TestApplyLeavesCovarianceExactlySymmetric is the contract the symmetric
// dense-sparse read path (DenseMulTSymPar) depends on: after every Apply,
// C must be bitwise symmetric — no averaging tolerance — for both the
// simple and the Joseph covariance forms and for every team size.
func TestApplyLeavesCovarianceExactlySymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, joseph := range []bool{false, true} {
		for _, procs := range []int{1, 2, 4, 7} {
			pos, cons := randChain(rng, 12)
			s := NewState(pos, 4)
			u := &Updater{Team: par.NewTeam(procs), Joseph: joseph}
			batches, err := MakeBatches(cons, ident, 8)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := u.ApplyAll(s, batches); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < s.Dim(); i++ {
				for j := 0; j < i; j++ {
					if s.C.At(i, j) != s.C.At(j, i) {
						t.Fatalf("joseph=%v procs=%d: C[%d][%d]=%g != C[%d][%d]=%g",
							joseph, procs, i, j, s.C.At(i, j), j, i, s.C.At(j, i))
					}
				}
			}
		}
	}
}

// TestApplyMatchesDenseReference recomputes one batch update with dense
// full-matrix algebra (H expanded, the full K·Aᵀ product entry by entry,
// averaging symmetrization) and checks the triangular path agrees to
// round-off. This pins the hot path to the semantics of Figure 1.
func TestApplyMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pos, cons := randChain(rng, 10)
	batches, err := MakeBatches(cons, ident, 64) // one batch
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 1 {
		t.Fatalf("expected one batch, got %d", len(batches))
	}

	// Reference: the same Figure 1 algebra with full-matrix kernels.
	ref := NewState(pos, 4)
	asm := batches[0].assemble(ref)
	n, m := ref.Dim(), len(asm.z)
	hd := asm.jac.Dense()
	a := mat.New(n, m)
	mat.Mul(a, ref.C, hd.T())
	ha := mat.New(m, m)
	mat.Mul(ha, hd, a)
	sM := ha.Clone()
	for i := 0; i < m; i++ {
		sM.Set(i, i, sM.At(i, i)+asm.r[i])
	}
	if err := mat.Cholesky(sM); err != nil {
		t.Fatal(err)
	}
	k := a.Clone()
	mat.SolveCholRows(sM, k)
	nu := make([]float64, m)
	mat.SubVec(nu, asm.z, asm.h)
	dx := make([]float64, n)
	mat.MulVec(dx, k, nu)
	mat.Axpy(1, dx, ref.X)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			ref.C.Set(i, j, ref.C.At(i, j)-mat.Dot(k.Row(i), a.Row(j)))
		}
	}
	ref.C.Symmetrize()

	got := NewState(pos, 4)
	u := &Updater{}
	if _, err := u.Apply(got, batches[0]); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if math.Abs(got.X[i]-ref.X[i]) > 1e-10 {
			t.Fatalf("x[%d] = %g, reference %g", i, got.X[i], ref.X[i])
		}
		for j := 0; j < n; j++ {
			if math.Abs(got.C.At(i, j)-ref.C.At(i, j)) > 1e-10 {
				t.Fatalf("C[%d][%d] = %g, reference %g", i, j, got.C.At(i, j), ref.C.At(i, j))
			}
		}
	}
}

func TestWrapAngle(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{1, 1},
		{-1, -1},
		{math.Pi, math.Pi},                    // boundary stays at π
		{-math.Pi, math.Pi},                   // −π maps to the +π end of (−π, π]
		{3 * math.Pi, math.Pi},                // odd multiples land on π
		{2 * math.Pi, 0},                      //
		{5, 5 - 2*math.Pi},                    //
		{-5, 2*math.Pi - 5},                   //
		{1e9, math.Remainder(1e9, 2*math.Pi)}, // wildly wrong innovation: O(1), no spinning
	}
	for _, c := range cases {
		got := wrapAngle(c.in)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("wrapAngle(%g) = %g, want %g", c.in, got, c.want)
		}
		if got > math.Pi || got <= -math.Pi {
			t.Errorf("wrapAngle(%g) = %g outside (−π, π]", c.in, got)
		}
	}
	// Property: agrees with the subtraction definition on moderate inputs.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		d := rng.NormFloat64() * 10
		slow := d
		for slow > math.Pi {
			slow -= 2 * math.Pi
		}
		for slow <= -math.Pi {
			slow += 2 * math.Pi
		}
		if math.Abs(wrapAngle(d)-slow) > 1e-9 {
			t.Fatalf("wrapAngle(%g) = %g, loop gives %g", d, wrapAngle(d), slow)
		}
	}
}

// TestTeamCached verifies the nil-Team fallback is constructed once and
// reused across Apply calls.
func TestTeamCached(t *testing.T) {
	u := &Updater{}
	first := u.team()
	if first == nil || first.Size() != 1 {
		t.Fatal("fallback team not a singleton")
	}
	if u.team() != first {
		t.Fatal("fallback team reallocated per call")
	}
}
