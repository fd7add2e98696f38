package filter

import (
	"fmt"
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
func randChain(rng *rand.Rand, atoms int) ([]geom.Vec3, constraint.Set) {
	pos := make([]geom.Vec3, atoms)
	for i := range pos {
		pos[i] = geom.Vec3{float64(i) * 1.5, rng.NormFloat64() * 0.2, rng.NormFloat64() * 0.2}
	}
	var cons constraint.Set
	for i := 0; i+1 < atoms; i++ {
		d := pos[i].Sub(pos[i+1]).Norm()
		cons.Add(constraint.Distance{I: i, J: i + 1, Target: d * (1 + 0.01*rng.NormFloat64()), Sigma: 0.1}.Row())
	}
	for i := 0; i+3 < atoms; i += 2 {
		d := pos[i].Sub(pos[i+3]).Norm()
		cons.Add(constraint.Distance{I: i, J: i + 3, Target: d * (1 + 0.01*rng.NormFloat64()), Sigma: 0.2}.Row())
	}
	return pos, cons
}

// poisonUpper fills the strict upper triangle of C with NaN.
func poisonUpper(s *State) {
	for i := 0; i < s.Dim(); i++ {
		for j := i + 1; j < s.Dim(); j++ {
			s.C.Set(i, j, math.NaN())
		}
	}
}

// upperPoisoned reports the first strict-upper entry of C that no longer
// holds poisonUpper's NaN, bit for bit.
func upperPoisoned(s *State) error {
	nan := math.Float64bits(math.NaN())
	for i := 0; i < s.Dim(); i++ {
		for j := i + 1; j < s.Dim(); j++ {
			if math.Float64bits(s.C.At(i, j)) != nan {
				return fmt.Errorf("C[%d][%d] = %v was written", i, j, s.C.At(i, j))
			}
		}
	}
	return nil
}

// No solver path writes the strict upper triangle of C, and none reads it:
// a state whose upper triangle is NaN comes back from each with that NaN
// intact, bit for bit, and with the same x and lower triangle as a state
// that started with zeros there — at every team width.
func TestUpperTriangleNeverWritten(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, procs := range []int{1, 2, 3, 7} {
		pos, cons := randChain(rng, 12)
		batches, err := makeBatches(cons, ident, 8)
		if err != nil {
			t.Fatal(err)
		}
		ctl := Control{Team: par.NewTeam(procs), MaxCycles: 3}.WithDefaults()
		// One batch first, so every path starts from a dense prior.
		prior := NewState(pos, 4)
		if _, err := applyAll(&Updater{}, prior, batches[:1]); err != nil {
			t.Fatal(err)
		}
		for _, path := range []struct {
			name string
			run  func(*State) error
		}{
			{"Apply", func(s *State) error {
				u := &Updater{Team: ctl.Team}
				for _, b := range batches {
					if _, err := u.Apply(s, b); err != nil {
						return err
					}
				}
				return nil
			}},
			{"ApplyLower", func(s *State) error {
				_, err := applyAll(ctl.Updater(ctl.Team, "", 1), s, batches)
				return err
			}},
		} {
			want, got := prior.Clone(), prior.Clone()
			poisonUpper(got)
			if err := path.run(want); err != nil {
				t.Fatal(err)
			}
			if err := path.run(got); err != nil {
				t.Fatal(err)
			}
			if err := sameBits(got, want); err != nil {
				t.Fatalf("%s, procs=%d: %v", path.name, procs, err)
			}
			if err := upperPoisoned(got); err != nil {
				t.Fatalf("%s, procs=%d: %v", path.name, procs, err)
			}
		}
	}
}

// TestApplyMatchesDenseReference recomputes one batch update with dense
// full-matrix algebra (H expanded, the full K·Aᵀ product entry by entry,
// averaging symmetrization) and checks the triangular path agrees to
// round-off on the lower triangle, the part it keeps. This pins the hot path to the semantics of Figure 1.
func TestApplyMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pos, cons := randChain(rng, 10)
	batches, err := makeBatches(cons, ident, 64) // one batch
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 1 {
		t.Fatalf("expected one batch, got %d", len(batches))
	}

	// Reference: the same Figure 1 algebra with full-matrix kernels.
	ref := NewState(pos, 4)
	lin := batches[0].assemble(ref)
	n, m := ref.Dim(), len(lin.Z)
	hd := lin.Jac.Build().Dense()
	a := mat.New(n, m)
	mat.Mul(a, ref.C, hd.T())
	ha := mat.New(m, m)
	mat.Mul(ha, hd, a)
	sM := ha.Clone()
	for i := 0; i < m; i++ {
		sM.Set(i, i, sM.At(i, i)+lin.R[i])
	}
	if err := mat.Cholesky(sM); err != nil {
		t.Fatal(err)
	}
	k := a.Clone()
	mat.SolveCholRows(sM, k)
	nu := make([]float64, m)
	mat.SubVec(nu, lin.Z, lin.H)
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
		for j := 0; j <= i; j++ {
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
