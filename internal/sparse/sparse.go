// Package sparse implements the compressed sparse row matrices used for
// measurement Jacobians. A batch of m scalar constraints on an n-dimensional
// state yields an m×n Jacobian H whose rows hold only a handful of non-zeros
// (six for a distance between two atoms), so the products C·Hᵀ and H·(C·Hᵀ)
// — the "d-s" dense-sparse operation class of the paper — are computed
// without ever forming H densely.
package sparse

import (
	"fmt"

	"phmse/internal/mat"
	"phmse/internal/par"
)

// Matrix is an immutable CSR (compressed sparse row) matrix.
type Matrix struct {
	rows, cols int
	rowPtr     []int     // len rows+1; row i occupies [rowPtr[i], rowPtr[i+1])
	colIdx     []int     // column index of each stored entry
	val        []float64 // value of each stored entry
}

// Builder accumulates entries row by row and produces a Matrix.
type Builder struct {
	cols   int
	rowPtr []int
	colIdx []int
	val    []float64
}

// NewBuilder returns a builder for matrices with the given number of columns.
func NewBuilder(cols int) *Builder {
	if cols < 0 {
		panic("sparse: negative column count")
	}
	return &Builder{cols: cols, rowPtr: []int{0}}
}

// AddRow appends one row given parallel slices of column indices and values.
// Indices within a row need not be sorted but must be in range and distinct.
func (b *Builder) AddRow(cols []int, vals []float64) {
	if len(cols) != len(vals) {
		panic("sparse: AddRow length mismatch")
	}
	for _, c := range cols {
		if c < 0 || c >= b.cols {
			panic(fmt.Sprintf("sparse: column %d out of %d", c, b.cols))
		}
	}
	b.colIdx = append(b.colIdx, cols...)
	b.val = append(b.val, vals...)
	b.rowPtr = append(b.rowPtr, len(b.colIdx))
}

// Build finalizes the builder into an immutable Matrix. The builder may be
// reused afterwards only via Reset.
func (b *Builder) Build() *Matrix {
	return &Matrix{
		rows:   len(b.rowPtr) - 1,
		cols:   b.cols,
		rowPtr: b.rowPtr,
		colIdx: b.colIdx,
		val:    b.val,
	}
}

// Reset clears the builder for reuse with the same column count, retaining
// allocated capacity.
func (b *Builder) Reset() {
	b.rowPtr = b.rowPtr[:1]
	b.colIdx = b.colIdx[:0]
	b.val = b.val[:0]
}

// NNZ returns the number of stored entries.
func (m *Matrix) NNZ() int { return len(m.val) }

// Row returns the column indices and values of row i, aliasing the matrix
// storage. Callers must not modify the returned slices.
func (m *Matrix) Row(i int) (cols []int, vals []float64) {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	return m.colIdx[lo:hi], m.val[lo:hi]
}

// Dense expands the matrix into dense form (for tests and small problems).
func (m *Matrix) Dense() *mat.Mat {
	d := mat.New(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		cols, vals := m.Row(i)
		row := d.Row(i)
		for k, c := range cols {
			row[c] += vals[k]
		}
	}
	return d
}

// MulVec computes dst ← H·x (dst has length Rows).
func (m *Matrix) MulVec(dst, x []float64) {
	if len(dst) != m.rows || len(x) != m.cols {
		panic("sparse: MulVec dimension mismatch")
	}
	for i := 0; i < m.rows; i++ {
		cols, vals := m.Row(i)
		s := 0.0
		for k, c := range cols {
			s += vals[k] * x[c]
		}
		dst[i] = s
	}
}

// MulVecT computes dst ← Hᵀ·y (dst has length Cols). dst is overwritten.
func (m *Matrix) MulVecT(dst, y []float64) {
	if len(dst) != m.cols || len(y) != m.rows {
		panic("sparse: MulVecT dimension mismatch")
	}
	for i := range dst {
		dst[i] = 0
	}
	for i := 0; i < m.rows; i++ {
		cols, vals := m.Row(i)
		yi := y[i]
		for k, c := range cols {
			dst[c] += vals[k] * yi
		}
	}
}

// DenseMulTSymPar computes dst ← C·Hᵀ — the first "d-s" product of the
// update procedure — where H is this m×n sparse matrix, C a *symmetric* n×n
// dense one and dst n×m, with the rows of C partitioned across the team.
// Only the lower triangle of C is read: entry C[i][k] with k > i is taken
// from C[k][i] instead. The upper triangle of C may hold garbage, which is
// what lets the covariance hot path maintain (or trust) only one triangle.
// Work is proportional to n·nnz.
func (m *Matrix) DenseMulTSymPar(t *par.Team, dst, c *mat.Mat) {
	t.For(c.Rows, func(lo, hi int) { m.denseMulTSymRange(dst, c, lo, hi) })
}

func (m *Matrix) denseMulTSymRange(dst, c *mat.Mat, r0, r1 int) {
	if c.Rows != c.Cols {
		panic("sparse: DenseMulTSymPar on non-square matrix")
	}
	if dst.Rows != c.Rows || dst.Cols != m.rows || c.Cols != m.cols {
		panic("sparse: DenseMulTSymPar dimension mismatch")
	}
	for i := r0; i < r1; i++ {
		ci := c.Row(i)
		di := dst.Row(i)
		for j := 0; j < m.rows; j++ {
			cols, vals := m.Row(j)
			s := 0.0
			for k, cc := range cols {
				if cc <= i {
					s += vals[k] * ci[cc]
				} else {
					s += vals[k] * c.Data[cc*c.Stride+i]
				}
			}
			di[j] = s
		}
	}
}

// MulDensePar computes dst ← H·A where A is dense n×p and dst m×p, with the
// sparse rows partitioned across the team. This is the second "d-s" product
// (forming H·(C·Hᵀ)). Work is proportional to nnz·p.
func (m *Matrix) MulDensePar(t *par.Team, dst, a *mat.Mat) {
	t.For(m.rows, func(lo, hi int) { m.mulDenseRange(dst, a, lo, hi) })
}

func (m *Matrix) mulDenseRange(dst, a *mat.Mat, r0, r1 int) {
	if dst.Rows != m.rows || dst.Cols != a.Cols || a.Rows != m.cols {
		panic("sparse: MulDensePar dimension mismatch")
	}
	for i := r0; i < r1; i++ {
		di := dst.Row(i)
		for j := range di {
			di[j] = 0
		}
		cols, vals := m.Row(i)
		for k, c := range cols {
			mat.Axpy(vals[k], a.Row(c), di)
		}
	}
}
