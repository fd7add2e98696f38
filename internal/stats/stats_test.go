package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"phmse/internal/mat"
)

func TestLeastSquaresExact(t *testing.T) {
	// y = 2 + 3x fitted through exact points.
	x := mat.FromRows([][]float64{{1, 0}, {1, 1}, {1, 2}, {1, 3}})
	y := []float64{2, 5, 8, 11}
	beta, err := LeastSquares(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(beta[0]-2) > 1e-10 || math.Abs(beta[1]-3) > 1e-10 {
		t.Fatalf("beta = %v", beta)
	}
}

func TestLeastSquaresNoisyRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 400
	x := mat.New(n, 3)
	y := make([]float64, n)
	want := []float64{1.5, -2.0, 0.75}
	for i := 0; i < n; i++ {
		row := x.Row(i)
		row[0] = 1
		row[1] = rng.NormFloat64()
		row[2] = rng.NormFloat64()
		y[i] = want[0] + want[1]*row[1] + want[2]*row[2] + 0.01*rng.NormFloat64()
	}
	beta, err := LeastSquares(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if math.Abs(beta[j]-want[j]) > 0.01 {
			t.Fatalf("beta[%d] = %g, want %g", j, beta[j], want[j])
		}
	}
}

func TestLeastSquaresUnderdetermined(t *testing.T) {
	x := mat.New(2, 3)
	if _, err := LeastSquares(x, []float64{1, 2}); err == nil {
		t.Fatal("no error for underdetermined system")
	}
}

func TestNNLSMatchesUnconstrainedWhenPositive(t *testing.T) {
	x := mat.FromRows([][]float64{{1, 0}, {1, 1}, {1, 2}, {1, 3}})
	y := []float64{2, 5, 8, 11} // true beta (2, 3), both positive
	beta, err := NonNegativeLeastSquares(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(beta[0]-2) > 1e-8 || math.Abs(beta[1]-3) > 1e-8 {
		t.Fatalf("beta = %v", beta)
	}
}

func TestNNLSClampsNegative(t *testing.T) {
	// Data generated by y = 4 − 2x: the slope must clamp to zero.
	x := mat.FromRows([][]float64{{1, 0}, {1, 1}, {1, 2}, {1, 3}})
	y := []float64{4, 2, 0, -2}
	beta, err := NonNegativeLeastSquares(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if beta[1] != 0 {
		t.Fatalf("slope = %g, want clamp to 0", beta[1])
	}
	if beta[0] <= 0 {
		t.Fatalf("intercept = %g, want positive", beta[0])
	}
}

func TestNNLSAllZero(t *testing.T) {
	// Best non-negative fit to strictly decreasing-in-x data through the
	// origin basis is all-zero when every column correlates negatively.
	x := mat.FromRows([][]float64{{1}, {2}, {3}})
	y := []float64{-1, -2, -3}
	beta, err := NonNegativeLeastSquares(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if beta[0] != 0 {
		t.Fatalf("beta = %v, want [0]", beta)
	}
}

// Property: NNLS solutions are feasible (β ≥ 0) and never fit worse than the
// zero vector.
func TestNNLSFeasibilityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, p := 5+rng.Intn(30), 1+rng.Intn(4)
		x := mat.New(n, p)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < p; j++ {
				x.Set(i, j, rng.NormFloat64())
			}
			y[i] = rng.NormFloat64()
		}
		beta, err := NonNegativeLeastSquares(x, y)
		if err != nil {
			return false
		}
		for _, b := range beta {
			if b < 0 {
				return false
			}
		}
		pred := make([]float64, n)
		mat.MulVec(pred, x, beta)
		mat.SubVec(pred, pred, y)
		return math.Sqrt(mat.Dot(pred, pred)) <= math.Sqrt(mat.Dot(y, y))*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRSquared(t *testing.T) {
	obs := []float64{1, 2, 3, 4}
	if RSquared(obs, obs) != 1 {
		t.Fatal("perfect fit should give R²=1")
	}
	constPred := []float64{2.5, 2.5, 2.5, 2.5}
	if r := RSquared(constPred, obs); math.Abs(r) > 1e-12 {
		t.Fatalf("mean predictor R² = %g, want 0", r)
	}
	if RSquared([]float64{5, 5}, []float64{5, 5}) != 1 {
		t.Fatal("constant observed, exact prediction")
	}
	if RSquared([]float64{4, 6}, []float64{5, 5}) != 0 {
		t.Fatal("constant observed, wrong prediction")
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil)")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean")
	}
}

func TestLeastSquaresRidgeFallback(t *testing.T) {
	// A rank-deficient design (duplicate columns) is singular; the ridge
	// fallback must still return a finite solution fitting the data.
	x := mat.FromRows([][]float64{
		{1, 1, 0}, {1, 1, 1}, {1, 1, 2}, {1, 1, 3},
	})
	y := []float64{2, 5, 8, 11}
	beta, err := LeastSquares(x, y)
	if err != nil {
		t.Fatal(err)
	}
	pred := make([]float64, len(y))
	mat.MulVec(pred, x, beta)
	for i := range y {
		if math.Abs(pred[i]-y[i]) > 1e-3 {
			t.Fatalf("ridge fit prediction %v vs %v", pred, y)
		}
	}
}

func TestNNLSWideSystemSparseSolution(t *testing.T) {
	// More columns than rows: the active-set method keeps the passive set
	// small, so a wide system yields an exact sparse non-negative fit.
	x := mat.FromRows([][]float64{{1, 2, 3, 4}})
	beta, err := NonNegativeLeastSquares(x, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	pred := 0.0
	nonZero := 0
	for j, b := range beta {
		if b < 0 {
			t.Fatalf("infeasible beta %v", beta)
		}
		if b > 0 {
			nonZero++
		}
		pred += x.At(0, j) * b
	}
	if math.Abs(pred-1) > 1e-10 || nonZero != 1 {
		t.Fatalf("beta = %v (pred %g)", beta, pred)
	}
}

func TestRSquaredPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	RSquared([]float64{1}, []float64{1, 2})
}
