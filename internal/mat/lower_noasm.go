//go:build !amd64

package mat

// No vector microkernel on this GOARCH: lowerNTPacked always takes the Go tile.
const useAVX2 = false

func tiles4x8(out *float64, ldo int, a *float64, lda int, panel *float64, m, nt int, sign float64) {
	panic("mat: tiles4x8 without a vector kernel")
}
