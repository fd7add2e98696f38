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

// SolveCholRowsRange solves (L·Lᵀ)·xᵢ = bᵢ for each row i in [r0, r1) of b,
// treating every row of b as an independent right-hand side (so it computes
// B ← B·(L·Lᵀ)⁻¹ for the row-major layout used by the gain computation
// K = (C Hᵀ)·S⁻¹). The row range makes the multi-RHS solve trivially
// parallel across rows.
//
// One row's two substitutions are a single serial chain of dependent
// subtractions, so rows are solved four at a time: four independent chains
// in flight against one read of each L entry, with the backward pass
// reading rows of an exact transposed copy of L instead of striding down
// its columns. Every row still sees ForwardSolve's and BackwardSolveT's
// operation order, divisions included, so the result is bit-identical to
// solving it alone; the last r1−r0 mod 4 rows are solved that way.
func SolveCholRowsRange(l, b *Mat, r0, r1 int) {
	m := l.Rows
	if b.Cols != m {
		panic("mat: SolveCholRows dimension mismatch")
	}
	i := r0
	if r1-r0 >= 4 {
		// Batch dimensions stay at or below the Cholesky panel width in
		// practice, where the transposed copy lives on the stack.
		var stack [cholBlock * cholBlock]float64
		lt := stack[:]
		if m*m > len(lt) {
			lt = make([]float64, m*m)
		}
		for r := 0; r < m; r++ {
			for c, v := range l.Row(r)[:r+1] {
				lt[c*m+r] = v
			}
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

// solveChol4 solves (L·Lᵀ)·x = b in place for four right-hand sides at
// once. lt is the row-major transpose of L's lower triangle.
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
func SolveCholRows(l, b *Mat) { SolveCholRowsRange(l, b, 0, b.Rows) }
