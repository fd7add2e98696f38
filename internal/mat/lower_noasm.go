//go:build !amd64

package mat

// No vector microkernels on this GOARCH: lowerNTPacked always takes the Go
// tile and SolveCholRowsRange solveChol4.
const useAVX2, useAVX512 = false, false

func tiles4x8(out *float64, ldo int, a *float64, lda int, panel *float64, m, nt int, sign float64) {
	panic("mat: tiles4x8 without a vector kernel")
}

func tiles4x16z(out *float64, ldo int, a *float64, lda int, panel *float64, m, np int, sign float64) {
	panic("mat: tiles4x16z without a vector kernel")
}

func solveChol16(x *float64, ldx int, l *float64, ldl int, lt *float64, m int, work *float64) {
	panic("mat: solveChol16 without a vector kernel")
}
