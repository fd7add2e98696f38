package mat

// Triangular system solves ("sys" class). The filter gain K = C Hᵀ S⁻¹ is
// obtained by two triangular solves against the Cholesky factor of S, with
// the n rows of C Hᵀ as right-hand sides. These multi-RHS solves are the
// second-largest component of the run time in the paper's evaluation and
// parallelize across right-hand sides.

// ForwardSolve solves L·x = b in place on b, for lower-triangular L.
func ForwardSolve(l *Mat, b []float64) {
	n := l.Rows
	if len(b) != n {
		panic("mat: ForwardSolve dimension mismatch")
	}
	for i := 0; i < n; i++ {
		lr := l.Row(i)
		s := b[i]
		for k := 0; k < i; k++ {
			s -= lr[k] * b[k]
		}
		b[i] = s / lr[i]
	}
}

// BackwardSolveT solves Lᵀ·x = b in place on b, for lower-triangular L.
func BackwardSolveT(l *Mat, b []float64) {
	n := l.Rows
	if len(b) != n {
		panic("mat: BackwardSolveT dimension mismatch")
	}
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * b[k]
		}
		b[i] = s / l.At(i, i)
	}
}

// SolveCholRowsRange solves (L·Lᵀ)·xᵢ = bᵢ for each row i in [r0, r1) of
// src into the same row of dst, treating every row as an independent
// right-hand side (so it computes X ← B·(L·Lᵀ)⁻¹ for the row-major layout
// used by the gain computation K = (C Hᵀ)·S⁻¹). The rows are copied from
// src into dst first, unless src is dst, and solved there in place; the
// copy is the range's own, so a team's chunks copy in parallel and each
// solves rows it has just brought into cache. The row range makes the
// multi-RHS solve trivially parallel across rows.
//
// One row's two substitutions are a single serial chain of dependent
// subtractions, so rows are solved many at a time: independent chains in
// flight against one read of each L entry, with the backward pass reading
// rows of an exact transposed copy of L instead of striding down its
// columns. Where the processor has AVX2, sixteen rows go through
// solveChol16, one vector lane each, and more than four rows left after
// the last sixteen go with the ones before them as the range's last
// sixteen when they are copied from src; otherwise four at a time through
// solveChol4 and the last r1−r0 mod 4 rows alone. Every row sees
// ForwardSolve's and BackwardSolveT's operation order, divisions included,
// so the result is bit-identical to solving it alone whichever path took it.
func SolveCholRowsRange(l, b, src *Mat, r0, r1 int) {
	m := l.Rows
	if b.Cols != m || src.Cols != m || src.Rows != b.Rows {
		panic("mat: SolveCholRows dimension mismatch")
	}
	if src != b {
		for i := r0; i < r1; i++ {
			copy(b.Row(i), src.Row(i))
		}
	}
	i := r0
	if r1-r0 >= 4 && m > 0 {
		// Batch dimensions stay at or below the Cholesky panel width in
		// practice, where the transposed copy and the vector kernel's
		// column-major copy of its rows live on the stack.
		var stack [cholBlock * cholBlock]float64
		var work [solveRows * cholBlock]float64
		lt, w := stack[:], work[:]
		if m > cholBlock {
			lt, w = make([]float64, m*m), make([]float64, solveRows*(m+3)/4*4)
		}
		for r := 0; r < m; r++ {
			for c, v := range l.Row(r)[:r+1] {
				lt[c*m+r] = v
			}
		}
		for ; useAVX2 && i+solveRows <= r1; i += solveRows {
			solveChol16(&b.Data[i*b.Stride], b.Stride, &l.Data[0], l.Stride, &lt[0], m, &w[0])
		}
		if useAVX2 && src != b && r1-i > 4 && r1-r0 >= solveRows {
			// More than four rows left: they go with the ones before them
			// as the range's last sixteen, brought from src once more — a
			// row's solution depends on its own right-hand side alone, so
			// the rows solved twice come out as they did the first time.
			// Measured at m = 9 and 16 on ranges of 17–24, 33–40 and
			// 129–136 rows, sixteen more lanes beat solveChol4 and the
			// single rows for six to eight rows left at every size, and
			// for five at five of the six; for one to four rows left
			// either way won.
			j := r1 - solveRows
			for k := j; k < i; k++ {
				copy(b.Row(k), src.Row(k))
			}
			solveChol16(&b.Data[j*b.Stride], b.Stride, &l.Data[0], l.Stride, &lt[0], m, &w[0])
			i = r1
		}
		for ; i+4 <= r1; i += 4 {
			solveChol4(l, lt, b.Row(i), b.Row(i+1), b.Row(i+2), b.Row(i+3))
		}
	}
	for ; i < r1; i++ {
		row := b.Row(i)
		ForwardSolve(l, row)
		BackwardSolveT(l, row)
	}
}

// solveRows is how many right-hand sides solveChol16 takes per call.
const solveRows = 16

// solveChol4 solves (L·Lᵀ)·x = b in place for four right-hand sides at
// once. lt is the row-major transpose of L's lower triangle. It is the
// portable path and the reference solveChol16's lanes reproduce.
func solveChol4(l *Mat, lt []float64, x0, x1, x2, x3 []float64) {
	m := l.Rows
	x0, x1, x2, x3 = x0[:m], x1[:m], x2[:m], x3[:m]
	for i := 0; i < m; i++ {
		lr := l.Row(i)
		p0, p1, p2, p3 := x0[:i], x1[:i], x2[:i], x3[:i]
		s0, s1, s2, s3 := x0[i], x1[i], x2[i], x3[i]
		for k, v := range lr[:i] {
			s0 -= v * p0[k]
			s1 -= v * p1[k]
			s2 -= v * p2[k]
			s3 -= v * p3[k]
		}
		d := lr[i]
		x0[i], x1[i], x2[i], x3[i] = s0/d, s1/d, s2/d, s3/d
	}
	for i := m - 1; i >= 0; i-- {
		lc := lt[i*m : (i+1)*m]
		tail := lc[i+1:]
		q0, q1, q2, q3 := x0[i+1:][:len(tail)], x1[i+1:][:len(tail)], x2[i+1:][:len(tail)], x3[i+1:][:len(tail)]
		s0, s1, s2, s3 := x0[i], x1[i], x2[i], x3[i]
		for k, v := range tail {
			s0 -= v * q0[k]
			s1 -= v * q1[k]
			s2 -= v * q2[k]
			s3 -= v * q3[k]
		}
		d := lc[i]
		x0[i], x1[i], x2[i], x3[i] = s0/d, s1/d, s2/d, s3/d
	}
}

// SolveCholRows solves every row of b against the factor L: B ← B·(L·Lᵀ)⁻¹.
func SolveCholRows(l, b *Mat) { SolveCholRowsRange(l, b, b, 0, b.Rows) }
