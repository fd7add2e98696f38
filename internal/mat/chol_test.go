package mat

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"phmse/internal/par"
)

func TestCholeskyKnown(t *testing.T) {
	// A = L Lᵀ with L = [[2,0],[1,3]] gives A = [[4,2],[2,10]].
	a := FromRows([][]float64{{4, 2}, {2, 10}})
	if err := Cholesky(a); err != nil {
		t.Fatal(err)
	}
	want := FromRows([][]float64{{2, 0}, {1, 3}})
	if !a.Equal(want, 1e-14) {
		t.Fatalf("got %v want %v", a, want)
	}
}

func TestCholeskyReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, n := range []int{1, 2, 7, 31, 32, 33, 64, 100} {
		spd := randSPD(rng, n)
		l := spd.Clone()
		if err := Cholesky(l); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if recon := refMulNT(l, l); !recon.Equal(spd, 1e-8*float64(n)) {
			t.Fatalf("n=%d: L·Lᵀ does not reconstruct input", n)
		}
		// Strict upper triangle must be zeroed.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if l.At(i, j) != 0 {
					t.Fatalf("n=%d: upper triangle not zeroed at (%d,%d)", n, i, j)
				}
			}
		}
	}
}

func TestCholeskyNotPositiveDefinite(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, −1
	err := Cholesky(a)
	if !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
	// Blocked path must also detect indefiniteness.
	rng := rand.New(rand.NewSource(21))
	big := randSPD(rng, 80)
	big.Set(70, 70, -5)
	if err := Cholesky(big); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("blocked err = %v, want ErrNotPositiveDefinite", err)
	}
}

func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	n := 40
	spd := randSPD(rng, n)
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	MulVec(b, spd, xTrue)
	l := spd.Clone()
	if err := Cholesky(l); err != nil {
		t.Fatal(err)
	}
	CholeskySolve(l, b)
	for i := range b {
		if !almostEqual(b[i], xTrue[i], 1e-8) {
			t.Fatalf("solution mismatch at %d: %g vs %g", i, b[i], xTrue[i])
		}
	}
}

func TestSolveCholRows(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n, m := 6, 25
	spd := randSPD(rng, n)
	l := spd.Clone()
	if err := Cholesky(l); err != nil {
		t.Fatal(err)
	}
	b := randMat(rng, m, n)
	got := b.Clone()
	SolveCholRows(l, got)
	// Verify got · spd == b row-wise.
	check := New(m, n)
	Mul(check, got, spd)
	if !check.Equal(b, 1e-8) {
		t.Fatal("SolveCholRows residual too large")
	}
}

func TestForwardBackwardSolve(t *testing.T) {
	l := FromRows([][]float64{{2, 0}, {1, 3}})
	b := []float64{4, 11}
	ForwardSolve(l, b) // L y = b → y = [2, 3]
	if !almostEqual(b[0], 2, 1e-14) || !almostEqual(b[1], 3, 1e-14) {
		t.Fatalf("ForwardSolve got %v", b)
	}
	BackwardSolveT(l, b) // Lᵀ x = y → x[1] = 1, x[0] = (2−1·1)/2 = 0.5
	if !almostEqual(b[1], 1, 1e-14) || !almostEqual(b[0], 0.5, 1e-14) {
		t.Fatalf("BackwardSolveT got %v", b)
	}
}

// Property: CholeskyPar produces the same factor as on a team of one for
// any team size.
func TestCholeskyParMatchesSerialProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(90)
		p := 1 + rng.Intn(6)
		spd := randSPD(rng, n)
		serial := spd.Clone()
		if err := Cholesky(serial); err != nil {
			return false
		}
		parallel := spd.Clone()
		if err := CholeskyPar(par.NewTeam(p), parallel); err != nil {
			return false
		}
		return serial.Equal(parallel, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: for random SPD systems, the Cholesky solve residual is tiny.
func TestCholeskySolveResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		spd := randSPD(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := append([]float64(nil), b...)
		l := spd.Clone()
		if err := Cholesky(l); err != nil {
			return false
		}
		CholeskySolve(l, x)
		res := make([]float64, n)
		MulVec(res, spd, x)
		SubVec(res, res, b)
		return norm2(res) <= 1e-7*(1+norm2(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// A non-SPD input fails the same way on any team: the same wrapped error
// naming the block, and the same bits left behind.
func TestCholeskyParNotPositiveDefinite(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	big := randSPD(rng, 80)
	big.Set(70, 70, -5)
	one, three := big.Clone(), big.Clone()
	err1, err3 := CholeskyPar(par.NewTeam(1), one), CholeskyPar(par.NewTeam(3), three)
	if !errors.Is(err3, ErrNotPositiveDefinite) || !strings.HasPrefix(err3.Error(), "block at 64: ") {
		t.Fatalf("team of 3: err = %v, want ErrNotPositiveDefinite wrapped in its block", err3)
	}
	if err1 == nil || err1.Error() != err3.Error() {
		t.Fatalf("team of 1: err = %v, team of 3: %v", err1, err3)
	}
	sameBits(t, "after the failed factorization", three, one)
}

func TestSolveCholRowsPar(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	n, m := 16, 50
	spd := randSPD(rng, n)
	l := spd.Clone()
	if err := Cholesky(l); err != nil {
		t.Fatal(err)
	}
	b := randMat(rng, m, n)
	serial := b.Clone()
	SolveCholRows(l, serial)
	parallel := b.Clone()
	SolveCholRowsPar(par.NewTeam(5), l, parallel, parallel)
	if !serial.Equal(parallel, 1e-12) {
		t.Fatal("parallel multi-RHS solve mismatch")
	}
}

func BenchmarkCholesky128(b *testing.B) {
	rng := rand.New(rand.NewSource(25))
	spd := randSPD(rng, 128)
	work := New(128, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		work.CopyFrom(spd)
		if err := Cholesky(work); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveCholRows times the gain's multi-RHS solve K = A·S⁻¹ ("sys")
// at node dimensions the cold helix solves of serve_cold_burst run (36,
// 129, 258) and at the ribo30S root's, batch dimension 16.
func BenchmarkSolveCholRows(b *testing.B) {
	const m = 16
	rng := rand.New(rand.NewSource(26))
	l := randSPD(rng, m)
	if err := Cholesky(l); err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{36, 129, 258, 2598} {
		rhs := randMat(rng, n, m)
		work := New(n, m)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				work.CopyFrom(rhs)
				SolveCholRows(l, work)
			}
		})
	}
}

// cholTextbook is cholUnblocked before its rows went four at a time, kept
// as the reference: one running difference per entry.
func cholTextbook(a *Mat) error {
	n := a.Rows
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		jr := a.Row(j)
		for k := 0; k < j; k++ {
			d -= jr[k] * jr[k]
		}
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("%w (pivot %d = %g)", ErrNotPositiveDefinite, j, d)
		}
		d = math.Sqrt(d)
		a.Set(j, j, d)
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			ir := a.Row(i)
			for k := 0; k < j; k++ {
				s -= ir[k] * jr[k]
			}
			a.Set(i, j, s*inv)
		}
	}
	return nil
}

// TestCholUnblockedMatchesTextbook holds the factorization of the small
// matrices every batch factors to the textbook loop bit for bit — orders on
// and off multiples of four, strided views, signed zeros and subnormals off
// the diagonal — and to the same error at the same pivot when a pivot fails.
func TestCholUnblockedMatchesTextbook(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for n := 0; n <= 40; n++ {
		spd := randSPD(rng, n)
		for i := 0; i < n; i++ {
			for j := 0; j < i; j++ {
				switch rng.Intn(10) {
				case 0:
					spd.Set(i, j, math.Copysign(0, -1))
				case 1:
					spd.Set(i, j, 5e-324)
				}
			}
		}
		if n > 5 && n%3 == 0 {
			spd.Set(n-2, n-2, -1) // a failing pivot
		}
		want := spd.Clone()
		wantErr := cholTextbook(want)
		got := sameView(spd, n%2 == 1)
		err := cholUnblocked(got)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("n=%d: err = %v, want %v", n, err, wantErr)
		}
		sameBits(t, fmt.Sprintf("n=%d", n), got, want)
	}
}
