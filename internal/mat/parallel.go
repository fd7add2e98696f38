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

// SolveCholRowsPar solves B ← B·(L·Lᵀ)⁻¹ with the independent right-hand
// side rows of B partitioned across the team ("sys" class).
func SolveCholRowsPar(t *par.Team, l, b *Mat) {
	t.For(b.Rows, func(lo, hi int) { SolveCholRowsRange(l, b, lo, hi) })
}

// lowerNTPar is the lower triangle of dst ← dst + sign·A·Bᵀ with row blocks
// partitioned by area across the team (ForTri). B is packed once, before
// the team starts, and every chunk reads the same panel.
func lowerNTPar(t *par.Team, dst, a, b *Mat, sign float64) {
	pb := packPanel(b, dst.Rows)
	t.ForTri(dst.Rows, func(lo, hi int) { lowerNTPacked(dst, a, b, pb, lo, hi, sign) })
	pb.release()
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

// Syr2kSubPar is Syr2kSubLowerPar with every chunk's rows mirrored onto the
// upper triangle as they finish. Nothing in the solver calls it — the filter
// mirrors once per node pass — it is here for the bench ladder's syr2k
// rung. The mirrored writes land in upper-triangle entries owned
// exclusively by the writing worker, so the partitioning is race-free.
func Syr2kSubPar(t *par.Team, dst, a, b *Mat) {
	checkSyr2k(dst, a, b)
	pb := packPanel(b, dst.Rows)
	t.ForTri(dst.Rows, func(lo, hi int) {
		lowerNTPacked(dst, a, b, pb, lo, hi, -1)
		mirrorLowerRange(dst, lo, hi)
	})
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
