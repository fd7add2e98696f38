// Package mat provides the dense linear-algebra kernels used by the
// structure estimator: matrices, vectors, multiplication (serial, tiled and
// team-parallel), Cholesky factorization and triangular solves.
//
// The package is self-contained (stdlib only) and deliberately small: it
// implements exactly the operation classes the paper's evaluation measures —
// dense matrix multiplication (m-m), matrix-vector products (m-v), Cholesky
// factorization (chol), triangular system solves (sys) and vector operations
// (vec). Sparse-dense products (d-s) live in package sparse.
//
// Matrices are dense, row-major, with an explicit stride so that rectangular
// views into a larger allocation are cheap.
package mat

import (
	"fmt"
	"math"
)

// Mat is a dense row-major matrix. Element (i, j) is Data[i*Stride+j].
// The zero value is an empty matrix; use New to allocate.
type Mat struct {
	Rows, Cols int
	Stride     int
	Data       []float64
}

// New allocates a zeroed r×c matrix.
func New(r, c int) *Mat {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %d×%d", r, c))
	}
	return &Mat{Rows: r, Cols: c, Stride: c, Data: make([]float64, r*c)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Mat {
	if len(rows) == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic("mat: ragged rows")
		}
		copy(m.Row(i), row)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Mat {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*m.Stride+i] = 1
	}
	return m
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Stride+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Stride+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Mat) Row(i int) []float64 { return m.Data[i*m.Stride : i*m.Stride+m.Cols] }

// View returns an r×c sub-matrix starting at (i, j) that aliases m's storage.
func (m *Mat) View(i, j, r, c int) *Mat {
	if i < 0 || j < 0 || r < 0 || c < 0 || i+r > m.Rows || j+c > m.Cols {
		panic(fmt.Sprintf("mat: view (%d,%d,%d,%d) out of %d×%d", i, j, r, c, m.Rows, m.Cols))
	}
	return &Mat{Rows: r, Cols: c, Stride: m.Stride, Data: m.Data[i*m.Stride+j:]}
}

// Clone returns a deep copy of m with a compact stride.
func (m *Mat) Clone() *Mat {
	out := New(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i), m.Row(i))
	}
	return out
}

// CopyFrom copies src into m; dimensions must match.
func (m *Mat) CopyFrom(src *Mat) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("mat: copy %d×%d from %d×%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		copy(m.Row(i), src.Row(i))
	}
}

// Zero sets every element of m to zero.
func (m *Mat) Zero() {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = 0
		}
	}
}

// Add accumulates a into m element-wise; dimensions must match.
func (m *Mat) Add(a *Mat) {
	if m.Rows != a.Rows || m.Cols != a.Cols {
		panic("mat: Add dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		mr, ar := m.Row(i), a.Row(i)
		for j := range mr {
			mr[j] += ar[j]
		}
	}
}

// Sub subtracts a from m element-wise; dimensions must match.
func (m *Mat) Sub(a *Mat) {
	if m.Rows != a.Rows || m.Cols != a.Cols {
		panic("mat: Sub dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		mr, ar := m.Row(i), a.Row(i)
		for j := range mr {
			mr[j] -= ar[j]
		}
	}
}

// T returns the transpose of m as a new matrix.
func (m *Mat) T() *Mat {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Stride+i] = v
		}
	}
	return t
}

// Symmetrize replaces m with (m + mᵀ)/2, forcing exact symmetry. It is used
// to suppress drift in covariance updates. m must be square.
func (m *Mat) Symmetrize() {
	if m.Rows != m.Cols {
		panic("mat: Symmetrize on non-square matrix")
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			v := 0.5 * (m.At(i, j) + m.At(j, i))
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
}

// MaxAbs returns the largest absolute element value, or 0 for empty matrices.
func (m *Mat) MaxAbs() float64 {
	max := 0.0
	for i := 0; i < m.Rows; i++ {
		for _, v := range m.Row(i) {
			if a := math.Abs(v); a > max {
				max = a
			}
		}
	}
	return max
}

// Equal reports whether m and a agree element-wise within tol.
func (m *Mat) Equal(a *Mat, tol float64) bool {
	if m.Rows != a.Rows || m.Cols != a.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		mr, ar := m.Row(i), a.Row(i)
		for j := range mr {
			if math.Abs(mr[j]-ar[j]) > tol {
				return false
			}
		}
	}
	return true
}

// String renders small matrices for debugging.
func (m *Mat) String() string {
	s := fmt.Sprintf("mat %d×%d", m.Rows, m.Cols)
	if m.Rows*m.Cols <= 64 {
		for i := 0; i < m.Rows; i++ {
			s += "\n"
			for j := 0; j < m.Cols; j++ {
				s += fmt.Sprintf(" % .4g", m.At(i, j))
			}
		}
	}
	return s
}
