package mat

// The vector kernels other packages dispatch to: the d-s products' column
// gather and sixteen-lane column sums and the H·A rows (sparse), and the
// guard's magnitude scan (filter). Each is the lanes-wide form of a Go loop
// its caller keeps as the portable path and the test reference, performing
// per entry the same IEEE operations in the same order — products and sums
// each rounded on their own, never fused — so whichever form runs, the bits
// are the same. They run where VectorUnit reports true and panic elsewhere.

// VectorUnit reports whether the vector kernels run on this processor: the
// one decision made at package init from CPUID and XGETBV (useAVX2), or a
// test's PinKernels.
func VectorUnit() bool { return useAVX2 }

// GatherRows4 copies rows i…i+3 of c at the columns cols names into g,
// column by column: g[q·ld + r] = c[i+r][cols[q]] for r < 4 and every q.
// cols is strictly ascending, so four consecutive entries q…q+3 with
// cols[q+3] = cols[q]+3 name one contiguous run, loaded without a gather;
// ld ≥ 4.
func GatherRows4(g []float64, ld int, c *Mat, i int, cols []int) {
	nc := len(cols)
	if nc == 0 {
		return
	}
	if ld < 4 || i < 0 || i+4 > c.Rows || cols[0] < 0 || cols[nc-1] >= c.Cols || len(g) < (nc-1)*ld+4 {
		panic("mat: GatherRows4 out of range")
	}
	gatherRows4(&g[0], ld, &c.Data[i*c.Stride], c.Stride, &cols[0], nc)
}

// SlabRows is how many rows ColumnSums16 computes per call.
const SlabRows = 16

// ColumnSums16 computes sixteen rows of the product of the CSR matrix
// (rowPtr, pos, val) — m = len(rowPtr)−1 rows, row j's entries at
// [rowPtr[j], rowPtr[j+1]) — with the columns of g, transposed: for j < m
// and l < 16,
//
//	work[16j + l] = Σ_k val[k]·g[pos[k]·ld + l]
//
// from +0, k ascending. Where dst is not nil, dst[l·ldd + j] receives it too
// for l < 16 and j < m rounded down to a multiple of 4; the caller stores
// the rest from work. Every pos[k]·ld + 16 must lie within g.
func ColumnSums16(work, g []float64, ld int, rowPtr, pos []int, val []float64, dst []float64, ldd int) {
	m := len(rowPtr) - 1
	if m <= 0 {
		return
	}
	nnz := rowPtr[m]
	if len(work) < SlabRows*m || len(g) < SlabRows || len(pos) < nnz || len(val) < nnz || rowPtr[0] < 0 {
		panic("mat: ColumnSums16 out of range")
	}
	groups := 0
	dp := &work[0]
	if dst != nil {
		groups = m / 4
		if groups > 0 {
			if ldd < 4*groups || len(dst) < (SlabRows-1)*ldd+4*groups {
				panic("mat: ColumnSums16 destination out of range")
			}
			dp = &dst[0]
		}
	}
	columnSums16(&work[0], &g[0], ld, &rowPtr[0], ptrOrNil(pos), ptrOrNil(val), m, dp, ldd, groups)
}

// SparseRowMul sets dst ← Σ_k vals[k]·a.Row(cols[k]), every entry starting
// from +0 and taking the terms in k order: the row-by-Axpy loop
// `clear(dst); for k { Axpy(vals[k], a.Row(cols[k]), dst) }`, with the
// entries in ymm lanes and the last a.Cols mod 4 in Go.
func SparseRowMul(dst []float64, a *Mat, cols []int, vals []float64) {
	p := a.Cols
	if len(dst) != p || len(vals) != len(cols) {
		panic("mat: SparseRowMul dimension mismatch")
	}
	for _, c := range cols {
		if c < 0 || c >= a.Rows {
			panic("mat: SparseRowMul column out of range")
		}
	}
	if len(cols) == 0 {
		clear(dst)
		return
	}
	p4 := p &^ 3
	if p4 > 0 {
		sparseRow(&dst[0], p4, &a.Data[0], a.Stride, &cols[0], &vals[0], len(cols))
	}
	for j := p4; j < p; j++ {
		s := 0.0
		for k, c := range cols {
			s += vals[k] * a.Data[c*a.Stride+j]
		}
		dst[j] = s
	}
}

// MaxMagnitudeBits returns the largest Float64bits(v) with the sign bit
// cleared over vs, whose length is a multiple of 16 (0 for none).
func MaxMagnitudeBits(vs []float64) uint64 {
	if len(vs)%16 != 0 {
		panic("mat: MaxMagnitudeBits length not a multiple of 16")
	}
	if len(vs) == 0 {
		return 0
	}
	return maxMagnitude16(&vs[0], len(vs))
}

// ptrOrNil is &s[0], or nil for an empty s — which a kernel handed no
// entries never dereferences.
func ptrOrNil[T any](s []T) *T {
	if len(s) == 0 {
		return nil
	}
	return &s[0]
}
