package mat

import "phmse/internal/par"

// Team-parallel variants of the dense kernels. All of them partition work by
// contiguous row blocks, matching the paper's intra-node parallelization of
// the update procedure: the O(nm) loops in one block per team member
// (par.Team.For), the O(n²m) triangular sweeps in many area-balanced blocks
// that members claim as they come free (par.Team.ForTri). Each takes the
// par.Team assigned to the hierarchy node being computed; a team of one
// runs the serial path.

// MulPar computes dst ← A·B with rows of dst partitioned across the team.
func MulPar(t *par.Team, dst, a, b *Mat) {
	checkMul(dst, a, b)
	dst.Zero()
	t.For(a.Rows, func(lo, hi int) { mulAddRange(dst, a, b, lo, hi) })
}

// MulAddPar computes dst ← dst + A·B in parallel over row blocks.
func MulAddPar(t *par.Team, dst, a, b *Mat) {
	checkMul(dst, a, b)
	t.For(a.Rows, func(lo, hi int) { mulAddRange(dst, a, b, lo, hi) })
}

// MulSubPar computes dst ← dst − A·B in parallel over row blocks.
func MulSubPar(t *par.Team, dst, a, b *Mat) {
	checkMul(dst, a, b)
	t.For(a.Rows, func(lo, hi int) { mulSubRange(dst, a, b, lo, hi) })
}

// MulSubNTPar computes dst ← dst − A·Bᵀ in parallel over row blocks.
func MulSubNTPar(t *par.Team, dst, a, b *Mat) {
	t.For(a.Rows, func(lo, hi int) { mulSubNTRange(dst, a, b, lo, hi) })
}

// MulAddNTPar computes dst ← dst + A·Bᵀ in parallel over row blocks.
func MulAddNTPar(t *par.Team, dst, a, b *Mat) {
	t.For(a.Rows, func(lo, hi int) { mulAddNTRange(dst, a, b, lo, hi) })
}

// SolveCholRowsPar solves B ← B·(L·Lᵀ)⁻¹ with the independent right-hand
// side rows of B partitioned across the team ("sys" class).
func SolveCholRowsPar(t *par.Team, l, b *Mat) {
	t.For(b.Rows, func(lo, hi int) { SolveCholRowsRange(l, b, lo, hi) })
}

// CholeskyPar is a blocked right-looking Cholesky whose trailing-matrix
// updates are partitioned across the team. The panel factorization and panel
// solve are sequential, which is why — exactly as the paper observes — the
// factorization of the small per-batch innovation matrices scales poorly.
func CholeskyPar(t *par.Team, a *Mat) error {
	if a.Rows != a.Cols {
		panic("mat: CholeskyPar of non-square matrix")
	}
	n := a.Rows
	if t.Size() == 1 || n <= cholBlock {
		return Cholesky(a)
	}
	for k := 0; k < n; k += cholBlock {
		w := min(cholBlock, n-k)
		diag := a.View(k, k, w, w)
		if err := cholUnblocked(diag); err != nil {
			return err
		}
		if k+w < n {
			panel := a.View(k+w, k, n-k-w, w)
			t.For(panel.Rows, func(lo, hi int) {
				solveRightLowerT(panel.View(lo, 0, hi-lo, w), diag)
			})
			// The trailing update touches only the lower triangle, so the
			// row blocks are balanced by triangle area, not row count.
			trail := a.View(k+w, k+w, n-k-w, n-k-w)
			lowerNTPar(t, trail, panel, panel, -1)
		}
	}
	zeroUpper(a)
	return nil
}

// lowerNTPar is lowerNT over the whole triangle with row blocks partitioned
// by area across the team (ForTri). B is packed once, before the team
// starts, and every chunk reads the same panel.
func lowerNTPar(t *par.Team, dst, a, b *Mat, sign float64) {
	pb := packPanel(b, dst.Rows)
	t.ForTri(dst.Rows, func(lo, hi int) { lowerNTPacked(dst, a, b, pb, lo, hi, sign) })
	pb.release()
}

// SyrkSubPar computes the lower triangle of dst ← dst − A·Aᵀ with row
// blocks of the triangle partitioned by area across the team (ForTri).
func SyrkSubPar(t *par.Team, dst, a *Mat) {
	checkSyrk(dst, a)
	lowerNTPar(t, dst, a, a, -1)
}

// SyrkAddPar computes the lower triangle of dst ← dst + A·Aᵀ in parallel
// over area-balanced triangular row blocks.
func SyrkAddPar(t *par.Team, dst, a *Mat) {
	checkSyrk(dst, a)
	lowerNTPar(t, dst, a, a, +1)
}

// Syr2kSubLowerPar computes the lower triangle of dst ← dst − A·Bᵀ over
// area-balanced triangular row blocks, leaving the strict upper triangle
// untouched — the per-batch covariance update, which mirrors once per node
// pass (MirrorLowerPar) instead of once per batch.
func Syr2kSubLowerPar(t *par.Team, dst, a, b *Mat) {
	checkSyr2k(dst, a, b)
	lowerNTPar(t, dst, a, b, -1)
}

// Syr2kPairSubLowerPar computes the lower triangle of
// dst ← dst − A·Bᵀ − B·Aᵀ over area-balanced triangular row blocks,
// leaving the strict upper triangle untouched.
func Syr2kPairSubLowerPar(t *par.Team, dst, a, b *Mat) {
	checkSyr2k(dst, a, b)
	pa, pb := packPanel(a, dst.Rows), packPanel(b, dst.Rows)
	t.ForTri(dst.Rows, func(lo, hi int) { pairSubLower(dst, a, b, pa, pb, lo, hi) })
	pa.release()
	pb.release()
}

// Syr2kSubPar is Syr2kSub (dst ← dst − A·Bᵀ, lower triangle computed and
// mirrored) over area-balanced triangular row blocks. The mirrored writes
// land in upper-triangle entries owned exclusively by the writing worker,
// so the partitioning is race-free.
func Syr2kSubPar(t *par.Team, dst, a, b *Mat) {
	checkSyr2k(dst, a, b)
	pb := packPanel(b, dst.Rows)
	t.ForTri(dst.Rows, func(lo, hi int) {
		lowerNTPacked(dst, a, b, pb, lo, hi, -1)
		mirrorLowerRange(dst, lo, hi)
	})
	pb.release()
}

// Syr2kPairSubPar is Syr2kPairSub (dst ← dst − A·Bᵀ − B·Aᵀ, lower triangle
// computed and mirrored) over area-balanced triangular row blocks.
func Syr2kPairSubPar(t *par.Team, dst, a, b *Mat) {
	checkSyr2k(dst, a, b)
	pa, pb := packPanel(a, dst.Rows), packPanel(b, dst.Rows)
	t.ForTri(dst.Rows, func(lo, hi int) {
		pairSubLower(dst, a, b, pa, pb, lo, hi)
		mirrorLowerRange(dst, lo, hi)
	})
	pa.release()
	pb.release()
}

// MirrorLowerPar copies the strict lower triangle onto the upper triangle in
// parallel over area-balanced triangular row blocks.
func MirrorLowerPar(t *par.Team, m *Mat) {
	if m.Rows != m.Cols {
		panic("mat: MirrorLowerPar on non-square matrix")
	}
	t.ForTri(m.Rows, func(lo, hi int) { mirrorLowerRange(m, lo, hi) })
}

// SymMulVecPar computes dst ← C·x for symmetric C reading only the lower
// triangle, with rows partitioned across the team. Each row costs O(n)
// regardless of its index (row part plus column part), so the plain row
// split of For is already balanced here.
func SymMulVecPar(t *par.Team, dst []float64, c *Mat, x []float64) {
	checkSymMulVec(dst, c, x)
	t.For(c.Rows, func(lo, hi int) { symMulVecRange(dst, c, x, lo, hi) })
}

// MulVecPar computes dst ← A·x with rows partitioned across the team.
func MulVecPar(t *par.Team, dst []float64, a *Mat, x []float64) {
	if len(dst) != a.Rows || len(x) != a.Cols {
		panic("mat: MulVecPar dimension mismatch")
	}
	t.For(a.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = Dot(a.Row(i), x)
		}
	})
}

// SymmetrizePar forces symmetry of a square matrix in parallel over rows by
// averaging mirrored entries. The per-batch covariance hot path no longer
// needs it — the triangular kernels and MirrorLowerPar leave the matrix
// exactly symmetric — but it remains for consumers that build a
// nearly-symmetric matrix some other way.
func SymmetrizePar(t *par.Team, m *Mat) {
	if m.Rows != m.Cols {
		panic("mat: SymmetrizePar on non-square matrix")
	}
	t.For(m.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := i + 1; j < m.Cols; j++ {
				v := 0.5 * (m.At(i, j) + m.At(j, i))
				m.Set(i, j, v)
				m.Set(j, i, v)
			}
		}
	})
}
