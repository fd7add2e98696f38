// Package sparse implements the compressed sparse row matrices used for
// measurement Jacobians. A batch of m scalar constraints on an n-dimensional
// state yields an m×n Jacobian H whose rows hold only a handful of non-zeros
// (six for a distance between two atoms), so the products C·Hᵀ and H·(C·Hᵀ)
// — the "d-s" dense-sparse operation class of the paper — are computed
// without ever forming H densely.
package sparse

import (
	"fmt"
	"slices"
	"sync"

	"phmse/internal/mat"
	"phmse/internal/par"
)

// Matrix is an immutable CSR (compressed sparse row) matrix.
type Matrix struct {
	rows, cols int
	rowPtr     []int     // len rows+1; row i occupies [rowPtr[i], rowPtr[i+1])
	colIdx     []int     // column index of each stored entry
	val        []float64 // value of each stored entry
	plan       *colPlan  // the Builder's gather plan of colIdx
}

// Builder accumulates entries row by row and produces a Matrix.
type Builder struct {
	cols   int
	rowPtr []int
	colIdx []int
	val    []float64
	// plan is the gather plan of the column indices last built, kept across
	// Reset: a batch rebuilds its Jacobian every cycle, and its pattern
	// changes only when a gated constraint switches or an entry is exactly
	// zero. On the cold helix solves and six ribo30S cycles every Build
	// after a batch's first found it current.
	plan colPlan
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

// Add appends one entry to the row being built; EndRow ends the row. The
// column must be in range and not yet in the row.
func (b *Builder) Add(col int, v float64) {
	if col < 0 || col >= b.cols {
		panic(fmt.Sprintf("sparse: column %d out of %d", col, b.cols))
	}
	b.colIdx = append(b.colIdx, col)
	b.val = append(b.val, v)
}

// EndRow ends the row Add has been filling, empty if nothing was added.
func (b *Builder) EndRow() { b.rowPtr = append(b.rowPtr, len(b.colIdx)) }

// Build finalizes the builder into an immutable Matrix. The builder may be
// reused afterwards only via Reset. The matrix's gather plan is the one the
// builder kept if that plan is of these column indices, entry by entry, and
// is rebuilt there otherwise.
func (b *Builder) Build() *Matrix {
	if !b.plan.of(b.colIdx) {
		b.plan.build(b.colIdx, b.cols)
	}
	return &Matrix{
		rows:   len(b.rowPtr) - 1,
		cols:   b.cols,
		rowPtr: b.rowPtr,
		colIdx: b.colIdx,
		val:    b.val,
		plan:   &b.plan,
	}
}

// Reset clears the builder for reuse with the same column count, retaining
// allocated capacity and the gather plan.
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

// DenseMulTSymPar computes dst ← C·Hᵀ — the first "d-s" product of the
// update procedure — where H is this m×n sparse matrix, C a *symmetric* n×n
// dense one and dst n×m, with the rows of C partitioned across the team.
// Only the lower triangle of C is read: entry C[i][k] with k > i is taken
// from C[k][i] instead. The upper triangle of C may hold garbage, which is
// what lets the solver keep C as its lower triangle alone.
// Work is proportional to n·nnz.
//
// Entry (i, j) is s := 0; s += v_k·C[i][c_k] over row j's non-zeros in
// order. The rows of a batch share atoms, so their non-zeros name far fewer
// distinct columns than there are non-zeros (about half, on helix nodes):
// each row block first gathers those columns of C into a contiguous buffer,
// once each, and the products then read the buffer without a branch on
// which triangle holds the entry — the same products summed in the same
// order, so the same bits. Which columns, and where each non-zero's column
// sits among them, is H's gather plan, made by its Builder and kept for the
// next matrix with the same column indices: a batch's product plans nothing
// in the cycles its pattern holds.
func (m *Matrix) DenseMulTSymPar(t *par.Team, dst, c *mat.Mat) {
	if c.Rows != c.Cols {
		panic("sparse: DenseMulTSymPar on non-square matrix")
	}
	if dst.Rows != c.Rows || dst.Cols != m.rows || c.Cols != m.cols {
		panic("sparse: DenseMulTSymPar dimension mismatch")
	}
	p := newGatherPlan(m, dst, c)
	t.For(c.Rows, p.body)
	p.release()
}

// gatherBlock is the number of rows of C one gather covers, and gatherLd
// the stride of the gathered columns in the buffer: a block of columns (≈ 40
// on a helix node, 23 KB) and of dst stay in the first-level cache while
// the products read and write them, and the stride is nine cache lines, not
// a power of two, so the columns a row is gathered into fall in different
// cache sets.
const (
	gatherBlock = 64
	gatherLd    = gatherBlock + 8
)

// colPlan is the gather plan of a pattern of column indices: the distinct
// columns it names and, for each stored entry, where its column sits among
// them. It depends on the column indices alone — the row pointers only
// group the entries — and spells them out: entry k's column is
// cols[pos[k]].
type colPlan struct {
	cols []int // the distinct columns, ascending
	pos  []int // pos[k] indexes cols with entry k's column
}

// of reports whether p is the plan of colIdx: entry by entry, the column p
// spells out is colIdx's.
func (p *colPlan) of(colIdx []int) bool {
	if len(p.pos) != len(colIdx) {
		return false
	}
	for k, t := range p.pos {
		if p.cols[t] != colIdx[k] {
			return false
		}
	}
	return true
}

// slotPool recycles the column → slot maps colPlan.build works through, n
// words each, which the builders' plans need not hold on to. slot[c] indexes
// cols with column c wherever cols[slot[c]] == c; other entries hold
// whatever an earlier build left, so a map is never cleared.
var slotPool = sync.Pool{New: func() any { return new([]int) }}

// build makes p the plan of colIdx, columns in [0, n).
func (p *colPlan) build(colIdx []int, n int) {
	sp := slotPool.Get().(*[]int)
	if len(*sp) < n {
		*sp = make([]int, n)
	}
	slot := *sp
	p.cols = slices.Grow(p.cols[:0], len(colIdx))
	for _, col := range colIdx {
		if t := slot[col]; t >= len(p.cols) || p.cols[t] != col {
			slot[col] = len(p.cols)
			p.cols = append(p.cols, col)
		}
	}
	slices.Sort(p.cols)
	for t, col := range p.cols {
		slot[col] = t
	}
	p.pos = slices.Grow(p.pos[:0], len(colIdx))
	for _, col := range colIdx {
		p.pos = append(p.pos, slot[col])
	}
	slotPool.Put(sp)
}

// gatherPlan is one DenseMulTSymPar call: H's plan and the operands, bound
// before the team starts and only read by its chunks.
type gatherPlan struct {
	*colPlan
	h      *Matrix
	dst, c *mat.Mat
	// body is p.rows, bound once per gatherPlan so that handing it to the
	// team allocates nothing.
	body func(lo, hi int)
}

// callPool and gatherPool recycle the calls and the chunks' gather buffers,
// which every batch update would otherwise allocate afresh. Every word a
// recycled one hands out is overwritten first.
var (
	callPool = sync.Pool{New: func() any {
		p := new(gatherPlan)
		p.body = p.rows
		return p
	}}
	gatherPool = sync.Pool{New: func() any { return new([]float64) }}
)

// newGatherPlan binds H's plan and the operands of dst ← C·Hᵀ.
func newGatherPlan(h *Matrix, dst, c *mat.Mat) *gatherPlan {
	p := callPool.Get().(*gatherPlan)
	p.colPlan, p.h, p.dst, p.c = h.plan, h, dst, c
	return p
}

// release returns the call to the pool, dropping its plan and operands.
func (p *gatherPlan) release() {
	p.colPlan, p.h, p.dst, p.c = nil, nil, nil, nil
	callPool.Put(p)
}

// rows computes rows [lo, hi) of dst, gatherBlock rows at a time. The
// chunk's buffer holds the gathered columns and, after them, the Go form's
// accumulator or the vector form's 16×m slab.
func (p *gatherPlan) rows(lo, hi int) {
	buf := gatherPool.Get().(*[]float64)
	need := len(p.cols)*gatherLd + max(gatherBlock, mat.SlabRows*p.h.rows)
	if cap(*buf) < need {
		*buf = make([]float64, need)
	}
	g := (*buf)[:need]
	vec := mat.VectorUnit()
	for r0 := lo; r0 < hi; r0 += gatherBlock {
		r1 := min(r0+gatherBlock, hi)
		p.gather(g, r0, r1, vec)
		if vec {
			p.multiplySlabs(g, r0, r1)
		} else {
			p.multiply(g, r0, r1)
		}
	}
	gatherPool.Put(buf)
}

// gather fills g[t·gatherLd + i−r0] = Csym[i][cols[t]] for rows i in
// [r0, r1) from the lower triangle: rows above a column's index read that
// column's row of C, a contiguous run; every other row i reads itself at
// the distinct columns at or left of i, which are a prefix of cols. On the
// vector unit the rows go four at a time: the columns at or left of all
// four through mat.GatherRows4, the corner — columns between the first row
// and the last — and the last r1−r0 mod 4 rows one entry at a time.
func (p *gatherPlan) gather(g []float64, r0, r1 int, vec bool) {
	c, cols := p.c, p.cols
	for t, col := range cols {
		above := min(max(col, r0), r1) - r0
		copy(g[t*gatherLd:t*gatherLd+above], c.Data[col*c.Stride+r0:])
	}
	t, i := 0, r0
	for ; vec && i+4 <= r1; i += 4 {
		for t < len(cols) && cols[t] <= i {
			t++
		}
		mat.GatherRows4(g[i-r0:], gatherLd, c, i, cols[:t])
		for q := t; q < len(cols) && cols[q] < i+4; q++ {
			for r := cols[q]; r < i+4; r++ {
				g[q*gatherLd+r-r0] = c.Data[r*c.Stride+cols[q]]
			}
		}
	}
	for ; i < r1; i++ {
		for t < len(cols) && cols[t] <= i {
			t++
		}
		ci, gi := c.Row(i), g[i-r0:]
		for q, col := range cols[:t] {
			gi[q*gatherLd] = ci[col]
		}
	}
}

// multiply forms rows [r0, r1) of dst from the gathered columns, one column
// of dst — one row of H — at a time: acc[i] starts at zero and takes the
// row's terms in order, three per pass over the block, then is stored.
func (p *gatherPlan) multiply(g []float64, r0, r1 int) {
	h, dst, w := p.h, p.dst, r1-r0
	acc := g[len(p.cols)*gatherLd:][:w]
	col := func(k int) []float64 { return g[p.pos[k]*gatherLd:][:w] }
	for j := 0; j < h.rows; j++ {
		k, hi := h.rowPtr[j], h.rowPtr[j+1]
		clear(acc)
		for ; k+3 <= hi; k += 3 {
			va, vb, vc := h.val[k], h.val[k+1], h.val[k+2]
			ga, gb, gc := col(k), col(k+1), col(k+2)
			for i, s := range acc {
				s += va * ga[i]
				s += vb * gb[i]
				s += vc * gc[i]
				acc[i] = s
			}
		}
		for ; k < hi; k++ {
			v, gk := h.val[k], col(k)
			for i, s := range acc {
				acc[i] = s + v*gk[i]
			}
		}
		out := dst.Data[r0*dst.Stride+j:]
		for i, s := range acc {
			out[i*dst.Stride] = s
		}
	}
}

// multiplySlabs is multiply on the vector unit: mat.ColumnSums16 forms
// sixteen rows of dst for all of H's rows at once, one lane per row of C,
// each entry the same ascending-k sum from +0 as multiply's. A full slab's
// columns reach dst by 4×4 transposes, the last m mod 4 from the slab
// buffer; a partial slab at the end of the block reads lanes past r1 —
// inside each column's gatherLd stride, left over from an earlier block or
// never written — and stores only its own rows.
func (p *gatherPlan) multiplySlabs(g []float64, r0, r1 int) {
	h, dst := p.h, p.dst
	m := h.rows
	if m == 0 {
		return
	}
	work := g[len(p.cols)*gatherLd:][:mat.SlabRows*m]
	for i := r0; i < r1; i += mat.SlabRows {
		w, j0 := min(mat.SlabRows, r1-i), 0
		if w == mat.SlabRows {
			mat.ColumnSums16(work, g[i-r0:], gatherLd, h.rowPtr, p.pos, h.val, dst.Data[i*dst.Stride:], dst.Stride)
			j0 = m &^ 3
		} else {
			mat.ColumnSums16(work, g[i-r0:], gatherLd, h.rowPtr, p.pos, h.val, nil, 0)
		}
		for l := range w {
			out := dst.Row(i + l)
			for j := j0; j < m; j++ {
				out[j] = work[mat.SlabRows*j+l]
			}
		}
	}
}

// MulDensePar computes dst ← H·A where A is dense n×p and dst m×p, with the
// sparse rows partitioned across the team. This is the second "d-s" product
// (forming H·(C·Hᵀ)). Work is proportional to nnz·p.
func (m *Matrix) MulDensePar(t *par.Team, dst, a *mat.Mat) {
	if dst.Rows != m.rows || dst.Cols != a.Cols || a.Rows != m.cols {
		panic("sparse: MulDensePar dimension mismatch")
	}
	t.For(m.rows, func(lo, hi int) { m.mulDenseRange(dst, a, lo, hi) })
}

// mulDenseRange forms rows [r0, r1) of H·A, each row's entries from +0 with
// the row's terms added in order: on the vector unit by mat.SparseRowMul,
// the entries in ymm lanes, and otherwise by the row-by-Axpy loop it
// reproduces.
func (m *Matrix) mulDenseRange(dst, a *mat.Mat, r0, r1 int) {
	vec := mat.VectorUnit()
	for i := r0; i < r1; i++ {
		di := dst.Row(i)
		cols, vals := m.Row(i)
		if vec {
			mat.SparseRowMul(di, a, cols, vals)
			continue
		}
		clear(di)
		for k, c := range cols {
			mat.Axpy(vals[k], a.Row(c), di)
		}
	}
}
