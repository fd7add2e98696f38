package mat

// Symmetry-aware kernels for the covariance update ("m-m" class). The exact
// measurement update C⁺ = C⁻ − K·Aᵀ (and its Joseph-form expansion) produces
// a symmetric matrix by construction, so computing all n² entries and then
// averaging away the round-off skew (Symmetrize) wastes half the flops of
// the single hottest operation class in the paper's Tables 1–6. The kernels
// here compute only the lower triangle — a SYRK/SYR2K-style formulation —
// through one register-tiled microkernel (lowerNTPacked) and leave the
// strict upper triangle untouched, so several triangular updates compose;
// mirrorLowerRange copies finished rows onto the upper triangle. The entry
// points, all team-parallel, are in parallel.go.
//
// Mirroring a row range is race-free under the triangular row partitioning
// of par.Team.ForTri: whoever runs the chunk holding row i writes the lower
// entries (i, j≤i) of the chunk's rows plus the mirrored upper entries
// (j, i) — and an upper entry of row j is written only by the chunk holding
// row i, never by the one holding row j, so writes never overlap.

func checkSyrk(dst, a *Mat) {
	if dst.Rows != dst.Cols || dst.Rows != a.Rows {
		panic("mat: Syrk dimension mismatch")
	}
}

func checkSyr2k(dst, a, b *Mat) {
	if dst.Rows != dst.Cols || dst.Rows != a.Rows || dst.Rows != b.Rows || a.Cols != b.Cols {
		panic("mat: Syr2k dimension mismatch")
	}
}

// lowerNTPacked computes rows [r0, r1) of the lower triangle of
// dst ← dst + sign·A·Bᵀ, sign = ±1 — the one kernel under every m-m entry
// point. Every entry is the plain ascending-k sum Σₖ A[i,k]·B[j,k], each
// product and each partial sum rounded on its own, added to dst with one
// more rounding — bit for bit what dst[i,j] ± Dot(A[i], B[j]) gives (x − y
// and x + (−y) are the same IEEE operation) — so neither the tiling, the
// row blocking, the team partition nor which of the two kernels below ran
// shows in the result. pb is B's panel (packPanel, at least rows [0, r1)
// of b), packed once by the caller for all the row ranges it sweeps against
// the same B — a team's chunks, the pair form's row blocks. A nil pb, which
// is what packPanel returns where there is no vector kernel, selects the Go
// tile; so does a range that ends before the vector kernel's first row
// block does.
func lowerNTPacked(dst, a, b *Mat, pb *panel, r0, r1 int, sign float64) {
	if pb == nil || r1 < tileRows {
		lowerTile(dst, a, b, r0, r1, sign)
	} else {
		lowerVec(dst, a, pb, r0, r1, sign)
	}
}

// lowerTile is the portable kernel, and the reference the vector kernel is
// tested against. Rows are taken two at a time and columns four at a time,
// so the inner loop carries eight independent accumulators (a single running
// dot product is bound by the latency of its one add chain) and loads six
// operands for sixteen flops. The ragged columns next to the diagonal and an
// odd last row take the Dot loop.
func lowerTile(dst, a, b *Mat, r0, r1 int, sign float64) {
	i := r0
	for ; i+1 < r1; i += 2 {
		a0, a1 := a.Row(i), a.Row(i+1)
		a1 = a1[:len(a0)]
		d0, d1 := dst.Row(i), dst.Row(i+1)
		j := 0
		for ; j+4 <= i+1; j += 4 {
			b0, b1, b2, b3 := b.Row(j)[:len(a0)], b.Row(j + 1)[:len(a0)], b.Row(j + 2)[:len(a0)], b.Row(j + 3)[:len(a0)]
			var s00, s01, s02, s03, s10, s11, s12, s13 float64
			for k, x0 := range a0 {
				x1 := a1[k]
				y0, y1, y2, y3 := b0[k], b1[k], b2[k], b3[k]
				s00 += x0 * y0
				s01 += x0 * y1
				s02 += x0 * y2
				s03 += x0 * y3
				s10 += x1 * y0
				s11 += x1 * y1
				s12 += x1 * y2
				s13 += x1 * y3
			}
			e0, e1 := d0[j:j+4], d1[j:j+4]
			e0[0] += sign * s00
			e0[1] += sign * s01
			e0[2] += sign * s02
			e0[3] += sign * s03
			e1[0] += sign * s10
			e1[1] += sign * s11
			e1[2] += sign * s12
			e1[3] += sign * s13
		}
		for ; j <= i; j++ {
			bj := b.Row(j)
			d0[j] += sign * Dot(a0, bj)
			d1[j] += sign * Dot(a1, bj)
		}
		d1[i+1] += sign * Dot(a1, b.Row(i+1))
	}
	if i < r1 {
		ai, dr := a.Row(i), dst.Row(i)
		for j := 0; j <= i; j++ {
			dr[j] += sign * Dot(ai, b.Row(j))
		}
	}
}

// pairRows is the row block of pairSubLower: both sweeps of a block find its
// dst rows still in cache, so the rank-2k update streams dst once, not twice.
const pairRows = 16

// pairSubLower computes rows [r0, r1) of the lower triangle of
// dst ← dst − A·Bᵀ − B·Aᵀ as two sweeps of the microkernel per row block,
// pa and pb being the packed panels of a and b (both nil for the Go tile).
// Each entry is (dst − A[i]·B[j]) − B[i]·A[j] with the two subtractions
// rounded separately, so the diagonal rounds exactly like the full
// rectangular computation would.
func pairSubLower(dst, a, b *Mat, pa, pb *panel, r0, r1 int) {
	for i := r0; i < r1; i += pairRows {
		hi := min(i+pairRows, r1)
		lowerNTPacked(dst, a, b, pb, i, hi, -1)
		lowerNTPacked(dst, b, a, pa, i, hi, -1)
	}
}

// mirrorTile is the block size of the tiled lower→upper copy. Mirroring
// entry (i, j) to (j, i) is a transpose: done entry-at-a-time it costs one
// scattered cache line per write and dominates large-n updates. Tiling by
// blocks of source rows keeps both the strided reads and the row-segment
// writes cache-resident.
const mirrorTile = 64

// mirrorLowerRange copies lower-triangle entries (i, j), j < i, i ∈ [r0, r1)
// onto their upper-triangle mirrors (j, i). The written columns are exactly
// [r0, r1), so disjoint row ranges mirror disjoint destinations — safe under
// ForTri partitioning.
func mirrorLowerRange(m *Mat, r0, r1 int) {
	for ii := r0; ii < r1; ii += mirrorTile {
		iMax := min(ii+mirrorTile, r1)
		for j := 0; j < iMax-1; j++ {
			row := m.Data[j*m.Stride:]
			for i := max(ii, j+1); i < iMax; i++ {
				row[i] = m.Data[i*m.Stride+j]
			}
		}
	}
}
