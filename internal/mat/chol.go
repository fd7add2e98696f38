package mat

import (
	"errors"
	"fmt"
	"math"

	"phmse/internal/par"
)

// Cholesky factorization ("chol" class). The paper factors the m×m innovation
// covariance S = H C Hᵀ + R of each constraint batch; m is the batch size, so
// the matrices are small and, as the evaluation shows, the factorization
// parallelizes poorly. We provide an unblocked kernel for small matrices and
// a blocked right-looking variant, serial or on a team, used above cholBlock.

// ErrNotPositiveDefinite is returned when a pivot is non-positive, meaning
// the input matrix is not (numerically) symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("mat: matrix not positive definite")

// cholBlock is the panel width of the blocked factorization.
const cholBlock = 32

// Cholesky overwrites the lower triangle of a with its Cholesky factor L
// (a = L·Lᵀ) and zeroes the strict upper triangle. a must be square.
func Cholesky(a *Mat) error { return CholeskyPar(serial, a) }

// serial is the team of one: its loops run inline, on the caller.
var serial = par.NewTeam(1)

// CholeskyPar is Cholesky with the panel solves and trailing-matrix updates
// of the blocked factorization partitioned across the team. The diagonal
// blocks are factored sequentially, which is why — exactly as the paper
// observes — the factorization of the small per-batch innovation matrices
// scales poorly: at or below cholBlock there is nothing but the diagonal
// block.
func CholeskyPar(t *par.Team, a *Mat) error {
	if a.Rows != a.Cols {
		panic("mat: Cholesky of non-square matrix")
	}
	n := a.Rows
	if n <= cholBlock {
		if err := cholUnblocked(a); err != nil {
			return err
		}
		zeroUpper(a)
		return nil
	}
	for k := 0; k < n; k += cholBlock {
		w := min(cholBlock, n-k)
		diag := a.View(k, k, w, w)
		if err := cholUnblocked(diag); err != nil {
			return fmt.Errorf("block at %d: %w", k, err)
		}
		if k+w < n {
			// Panel solve: A21 ← A21·L11⁻ᵀ, rows independent.
			panel := a.View(k+w, k, n-k-w, w)
			t.For(panel.Rows, func(lo, hi int) {
				solveRightLowerT(panel.View(lo, 0, hi-lo, w), diag)
			})
			// Trailing update: A22 ← A22 − A21·A21ᵀ, lower triangle only,
			// so the row blocks are balanced by triangle area.
			trail := a.View(k+w, k+w, n-k-w, n-k-w)
			lowerNTPar(t, trail, panel, panel, -1)
		}
	}
	zeroUpper(a)
	return nil
}

// cholUnblocked is the textbook column-oriented factorization; it writes L
// into the lower triangle and leaves the upper triangle untouched.
func cholUnblocked(a *Mat) error {
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

// solveRightLowerT computes B ← B·L⁻ᵀ for lower-triangular L, row by row.
func solveRightLowerT(b, l *Mat) {
	w := l.Rows
	for i := 0; i < b.Rows; i++ {
		br := b.Row(i)
		for j := 0; j < w; j++ {
			s := br[j]
			lr := l.Row(j)
			for k := 0; k < j; k++ {
				s -= br[k] * lr[k]
			}
			br[j] = s / lr[j]
		}
	}
}

func zeroUpper(a *Mat) {
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for j := i + 1; j < a.Cols; j++ {
			row[j] = 0
		}
	}
}

// CholeskySolve solves (L·Lᵀ)·x = b in place on b, given the factor L
// produced by Cholesky.
func CholeskySolve(l *Mat, b []float64) {
	ForwardSolve(l, b)
	BackwardSolveT(l, b)
}
