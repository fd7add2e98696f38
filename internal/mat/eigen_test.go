package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSymEigenDiagonal(t *testing.T) {
	a := FromRows([][]float64{{3, 0, 0}, {0, 7, 0}, {0, 0, 1}})
	w, v, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	if w[0] != 7 || w[1] != 3 || w[2] != 1 {
		t.Fatalf("w = %v", w)
	}
	// Eigenvector of the top eigenvalue is ±e₁ (column for 7).
	if math.Abs(math.Abs(v.At(1, 0))-1) > 1e-12 {
		t.Fatalf("top eigenvector %v", []float64{v.At(0, 0), v.At(1, 0), v.At(2, 0)})
	}
}

func TestSymEigenKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a := FromRows([][]float64{{2, 1}, {1, 2}})
	w, _, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(w[0], 3, 1e-12) || !almostEqual(w[1], 1, 1e-12) {
		t.Fatalf("w = %v", w)
	}
}

// Property: A·vᵢ = wᵢ·vᵢ, eigenvalues descending, V orthonormal, and the
// eigenvalue sum equals the trace.
func TestSymEigenProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		a := randMat(rng, n, n)
		sym := New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				v := 0.5 * (a.At(i, j) + a.At(j, i))
				sym.Set(i, j, v)
				sym.Set(j, i, v)
			}
		}
		w, v, err := SymEigen(sym)
		if err != nil {
			return false
		}
		trace := 0.0
		for i := 0; i < n; i++ {
			trace += sym.At(i, i)
		}
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += w[i]
			if i > 0 && w[i] > w[i-1]+1e-10 {
				return false // not descending
			}
			// Residual ‖A·vᵢ − wᵢ·vᵢ‖.
			col := make([]float64, n)
			for r := 0; r < n; r++ {
				col[r] = v.At(r, i)
			}
			av := make([]float64, n)
			MulVec(av, sym, col)
			for r := 0; r < n; r++ {
				av[r] -= w[i] * col[r]
			}
			if norm2(av) > 1e-8*(1+math.Abs(w[i])) {
				return false
			}
		}
		if math.Abs(sum-trace) > 1e-8*(1+math.Abs(trace)) {
			return false
		}
		// Orthonormality.
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				dot := 0.0
				for r := 0; r < n; r++ {
					dot += v.At(r, i) * v.At(r, j)
				}
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(dot-want) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSymEigenSPDPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	spd := randSPD(rng, 12)
	w, _, err := SymEigen(spd)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range w {
		if x <= 0 {
			t.Fatalf("SPD matrix has non-positive eigenvalue %g", x)
		}
	}
}

func TestSymEigenReadsLowerTriangleOnly(t *testing.T) {
	// Garbage in the strict upper triangle must not affect the result.
	a := FromRows([][]float64{{2, 999}, {1, 2}})
	w, _, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(w[0], 3, 1e-12) {
		t.Fatalf("w = %v", w)
	}
}
