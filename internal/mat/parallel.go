package mat

import "phmse/internal/par"

// Team-parallel variants of the dense kernels. All of them partition work by
// contiguous row blocks, matching the paper's intra-node parallelization of
// the update procedure: the O(nm) loops in one block per team member
// (par.Team.For), the O(n²m) triangular sweeps in many area-balanced blocks
// that members claim as they come free (par.Team.ForTri). Each takes the
// par.Team assigned to the hierarchy node being computed; a team of one
// runs the serial path.

// SolveCholRowsPar solves dst ← src·(L·Lᵀ)⁻¹ with the independent
// right-hand side rows partitioned across the team ("sys" class); each
// chunk copies its rows of src into dst just before solving them (src may
// be dst).
func SolveCholRowsPar(t *par.Team, l, dst, src *Mat) {
	t.For(dst.Rows, func(lo, hi int) { SolveCholRowsRange(l, dst, src, lo, hi) })
}

// lowerNTPar is the lower triangle of dst ← dst + sign·A·Bᵀ with row blocks
// partitioned by area across the team (ForTri). B is packed once, before
// the team starts, and every chunk reads the same panel.
func lowerNTPar(t *par.Team, dst, a, b *Mat, sign float64) {
	pb := packPanel(b, dst.Rows)
	t.ForTri(dst.Rows, func(lo, hi int) { lowerNTPacked(dst, a, b, pb, lo, hi, sign) })
	pb.release()
}

// Syr2kSubLowerPar computes the lower triangle of dst ← dst − A·Bᵀ over
// area-balanced triangular row blocks, leaving the strict upper triangle
// untouched — the per-batch covariance update. C is kept as its lower
// triangle throughout, so nothing ever mirrors it.
func Syr2kSubLowerPar(t *par.Team, dst, a, b *Mat) {
	checkSyr2k(dst, a, b)
	lowerNTPar(t, dst, a, b, -1)
}

// Syr2kSubPar is Syr2kSubLowerPar with every chunk's rows mirrored onto the
// upper triangle as they finish. Nothing in the solver calls it — the
// solver never mirrors — it is here for the bench ladder's syr2k rung, and
// goes when that rung times Syr2kSubLowerPar. The mirrored writes land in
// upper-triangle entries owned exclusively by the writing worker, so the
// partitioning is race-free.
func Syr2kSubPar(t *par.Team, dst, a, b *Mat) {
	checkSyr2k(dst, a, b)
	pb := packPanel(b, dst.Rows)
	t.ForTri(dst.Rows, func(lo, hi int) {
		lowerNTPacked(dst, a, b, pb, lo, hi, -1)
		mirrorLowerRange(dst, lo, hi)
	})
	pb.release()
}

// MulVecPar computes dst ← A·x with rows partitioned across the team.
// Each entry is Dot(A[i], x), bit for bit; the rows go four at a time, four
// independent running sums against one read of x, because a single row's
// sum is one chain of dependent additions.
func MulVecPar(t *par.Team, dst []float64, a *Mat, x []float64) {
	if len(dst) != a.Rows || len(x) != a.Cols {
		panic("mat: MulVecPar dimension mismatch")
	}
	t.For(a.Rows, func(lo, hi int) {
		i := lo
		for ; i+4 <= hi; i += 4 {
			a0, a1, a2, a3 := a.Row(i)[:len(x)], a.Row(i + 1)[:len(x)], a.Row(i + 2)[:len(x)], a.Row(i + 3)[:len(x)]
			var s0, s1, s2, s3 float64
			for k, v := range x {
				s0 += a0[k] * v
				s1 += a1[k] * v
				s2 += a2[k] * v
				s3 += a3[k] * v
			}
			dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
		}
		for ; i < hi; i++ {
			dst[i] = Dot(a.Row(i), x)
		}
	})
}
