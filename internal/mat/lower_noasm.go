//go:build !amd64

package mat

// No vector microkernels on this GOARCH: lowerNTPacked always takes the Go
// tile, SolveCholRowsRange solveChol4, and VectorUnit reports false, so the
// callers of the exported vector kernels take their Go forms.
const useAVX2, useAVX512 = false, false

// PinKernels: this GOARCH has the Go forms only, so there is nothing to pin.
func PinKernels(avx2, avx512 bool) (restore func()) { return func() {} }

func tiles4x8(out *float64, ldo int, a *float64, lda int, panel *float64, m, nt int, sign float64, masks uint64) {
	panic("mat: tiles4x8 without a vector kernel")
}

func tiles4x16z(out *float64, ldo int, a *float64, lda int, panel *float64, m, np int, sign float64, masks uint64) {
	panic("mat: tiles4x16z without a vector kernel")
}

func solveChol16(x *float64, ldx int, l *float64, ldl int, lt *float64, m int, work *float64) {
	panic("mat: solveChol16 without a vector kernel")
}

func gatherRows4(dst *float64, ld int, c *float64, ldc int, cols *int, nc int) {
	panic("mat: gatherRows4 without a vector kernel")
}

func columnSums16(work *float64, gathered *float64, ld int, rowPtr *int, pos *int, val *float64, m int, dst *float64, ldd int, groups int) {
	panic("mat: columnSums16 without a vector kernel")
}

func sparseRow(dst *float64, p int, a *float64, lda int, cols *int, vals *float64, nnz int) {
	panic("mat: sparseRow without a vector kernel")
}

func maxMagnitude16(vs *float64, n int) uint64 {
	panic("mat: maxMagnitude16 without a vector kernel")
}
