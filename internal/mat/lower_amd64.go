package mat

// tiles4x8 is the AVX2 m-m microkernel (lower_amd64.s): nt consecutive 4×8
// tiles of out ← out + sign·A·Bᵀ against a packed panel of B.
//
//go:noescape
func tiles4x8(out *float64, ldo int, a *float64, lda int, panel *float64, m, nt int, sign float64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// useAVX2 is decided once, from what the processor and the operating system
// report and nothing else: the CPU has AVX and AVX2, and the OS saves the
// ymm state (OSXSAVE set, XCR0 bits 1 and 2).
var useAVX2 = func() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if lo, _ := xgetbv(); lo&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}()
