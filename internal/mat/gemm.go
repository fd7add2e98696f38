package mat

// Dense matrix multiplication ("m-m" class). The inner kernels are written in
// the ikj loop order so the innermost loop streams rows of B and C, which the
// paper identifies (via constraint batching) as the key to cache-friendly
// tiling of the covariance update.

// gemmTile is the blocking factor for the tiled kernels. 48×48 float64 tiles
// (~18 KB for three operands) fit comfortably in a first-level cache.
const gemmTile = 48

// Mul computes dst ← A·B. dst must not alias A or B.
func Mul(dst, a, b *Mat) {
	checkMul(dst, a, b)
	dst.Zero()
	mulAddRange(dst, a, b, 0, a.Rows)
}

// MulTN computes dst ← Aᵀ·B without forming the transpose.
func MulTN(dst, a, b *Mat) {
	if dst.Rows != a.Cols || dst.Cols != b.Cols || a.Rows != b.Rows {
		panic("mat: MulTN dimension mismatch")
	}
	dst.Zero()
	for k := 0; k < a.Rows; k++ {
		ak, bk := a.Row(k), b.Row(k)
		for i, av := range ak {
			if av == 0 {
				continue
			}
			Axpy(av, bk, dst.Row(i))
		}
	}
}

func checkMul(dst, a, b *Mat) {
	if dst.Rows != a.Rows || dst.Cols != b.Cols || a.Cols != b.Rows {
		panic("mat: Mul dimension mismatch")
	}
}

// mulAddRange accumulates rows [r0, r1) of A·B into dst, tiled over the inner
// and column dimensions for cache locality.
func mulAddRange(dst, a, b *Mat, r0, r1 int) {
	n, p := a.Cols, b.Cols
	for kk := 0; kk < n; kk += gemmTile {
		kMax := min(kk+gemmTile, n)
		for jj := 0; jj < p; jj += gemmTile {
			jMax := min(jj+gemmTile, p)
			for i := r0; i < r1; i++ {
				ar := a.Row(i)
				dr := dst.Row(i)
				for k := kk; k < kMax; k++ {
					av := ar[k]
					if av == 0 {
						continue
					}
					br := b.Data[k*b.Stride:]
					for j := jj; j < jMax; j++ {
						dr[j] += av * br[j]
					}
				}
			}
		}
	}
}
