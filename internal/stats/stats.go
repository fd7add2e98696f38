// Package stats provides the small numerical-statistics toolkit the
// estimator needs: ordinary and non-negative least squares, R² and the mean,
// and the solver's oracles (oracle.go). The non-negative solver backs the paper's
// constrained regression for the work-estimation formula (Equation 1), whose
// coefficient checks (positive leading coefficient, non-negative constant
// term and coefficient sum) are all guaranteed by coefficient
// non-negativity.
package stats

import (
	"errors"
	"fmt"
	"math"

	"phmse/internal/mat"
)

// ErrSingular is returned when a least-squares system is numerically
// singular even after ridge stabilization.
var ErrSingular = errors.New("stats: singular least-squares system")

// LeastSquares solves min‖X·β − y‖₂ via the normal equations with Cholesky,
// adding a tiny ridge term if the Gram matrix is not positive definite.
func LeastSquares(x *mat.Mat, y []float64) ([]float64, error) {
	if x.Rows != len(y) {
		panic("stats: LeastSquares dimension mismatch")
	}
	if x.Rows < x.Cols {
		return nil, fmt.Errorf("stats: underdetermined system (%d rows, %d cols)", x.Rows, x.Cols)
	}
	p := x.Cols
	gram := mat.New(p, p)
	mat.MulTN(gram, x, x)
	rhs := make([]float64, p)
	mat.MulVecT(rhs, x, y)

	for _, ridge := range []float64{0, 1e-12, 1e-8, 1e-4} {
		l := gram.Clone()
		if ridge > 0 {
			scale := ridge * gram.MaxAbs()
			for i := 0; i < p; i++ {
				l.Set(i, i, l.At(i, i)+scale)
			}
		}
		if err := mat.Cholesky(l); err != nil {
			continue
		}
		beta := append([]float64(nil), rhs...)
		mat.CholeskySolve(l, beta)
		return beta, nil
	}
	return nil, ErrSingular
}

// NonNegativeLeastSquares solves min‖X·β − y‖₂ subject to β ≥ 0 using the
// Lawson–Hanson active-set algorithm.
func NonNegativeLeastSquares(x *mat.Mat, y []float64) ([]float64, error) {
	if x.Rows != len(y) {
		panic("stats: NNLS dimension mismatch")
	}
	p := x.Cols
	beta := make([]float64, p)
	passive := make([]bool, p) // true: unconstrained; false: clamped at zero
	resid := append([]float64(nil), y...)
	grad := make([]float64, p)

	const maxOuter = 200
	for outer := 0; outer < maxOuter; outer++ {
		// Gradient of ½‖Xβ−y‖² is −Xᵀ·resid; pick the most violated
		// zero-clamped variable.
		mat.MulVecT(grad, x, resid)
		best, bestVal := -1, 0.0
		for j := 0; j < p; j++ {
			if !passive[j] && grad[j] > bestVal+1e-12 {
				best, bestVal = j, grad[j]
			}
		}
		if best < 0 {
			return beta, nil // KKT conditions satisfied
		}
		passive[best] = true

		// Inner loop: solve restricted LS on the passive set; clip negatives.
		for {
			sub, idx := columns(x, passive)
			sol, err := LeastSquares(sub, y)
			if err != nil {
				return nil, err
			}
			if allPositive(sol) {
				for k, j := range idx {
					beta[j] = sol[k]
				}
				break
			}
			// Move toward sol until the first passive variable hits zero.
			alpha := math.Inf(1)
			for k, j := range idx {
				if sol[k] <= 0 {
					if step := beta[j] / (beta[j] - sol[k]); step < alpha {
						alpha = step
					}
				}
			}
			for k, j := range idx {
				beta[j] += alpha * (sol[k] - beta[j])
				if beta[j] <= 1e-14 {
					beta[j] = 0
					passive[j] = false
				}
			}
		}
		// Refresh the residual for the next gradient evaluation.
		copy(resid, y)
		tmp := make([]float64, x.Rows)
		mat.MulVec(tmp, x, beta)
		mat.SubVec(resid, y, tmp)
	}
	return beta, fmt.Errorf("stats: NNLS did not converge in %d iterations", maxOuter)
}

// columns extracts the selected columns of x into a compact matrix,
// returning the matrix and the original column indices.
func columns(x *mat.Mat, selected []bool) (*mat.Mat, []int) {
	var idx []int
	for j, s := range selected {
		if s {
			idx = append(idx, j)
		}
	}
	sub := mat.New(x.Rows, len(idx))
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		srow := sub.Row(i)
		for k, j := range idx {
			srow[k] = row[j]
		}
	}
	return sub, idx
}

func allPositive(v []float64) bool {
	for _, x := range v {
		if x <= 0 {
			return false
		}
	}
	return true
}

// RSquared returns the coefficient of determination of predictions vs
// observations.
func RSquared(predicted, observed []float64) float64 {
	if len(predicted) != len(observed) || len(observed) == 0 {
		panic("stats: RSquared length mismatch")
	}
	mean := Mean(observed)
	ssRes, ssTot := 0.0, 0.0
	for i, o := range observed {
		d := o - predicted[i]
		ssRes += d * d
		t := o - mean
		ssTot += t * t
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
