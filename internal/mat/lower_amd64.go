package mat

// tiles4x8 is the AVX2 m-m microkernel (lower_amd64.s), fused multiply-adds
// in ascending k: nt consecutive 4×8 tiles of out ← out + sign·A·Bᵀ against
// a packed panel of B, storing in row r of every tile the lanes c whose bit
// 16r + c of masks is set (allLanes: all of them).
//
//go:noescape
func tiles4x8(out *float64, ldo int, a *float64, lda int, panel *float64, m, nt int, sign float64, masks uint64)

// tiles4x16z is tiles4x8 on the 512-bit unit (lower_amd64.s): np pairs of
// adjacent 4×8 panel tiles, each pair one 4×16 tile whose sixteen lanes a
// row masks selects, every lane performing tiles4x8's operations.
//
//go:noescape
func tiles4x16z(out *float64, ldo int, a *float64, lda int, panel *float64, m, np int, sign float64, masks uint64)

// solveChol16 is the AVX2 sys microkernel (lower_amd64.s): 16 rows of x
// solved against L·Lᵀ in place, lanes performing solveChol4's operations.
//
//go:noescape
func solveChol16(x *float64, ldx int, l *float64, ldl int, lt *float64, m int, work *float64)

// gatherRows4, columnSums16, sparseRow and maxMagnitude16 are the AVX2
// kernels behind GatherRows4, ColumnSums16, SparseRowMul and
// MaxMagnitudeBits (lower_amd64.s).
//
//go:noescape
func gatherRows4(dst *float64, ld int, c *float64, ldc int, cols *int, nc int)

//go:noescape
func columnSums16(work *float64, gathered *float64, ld int, rowPtr *int, pos *int, val *float64, m int, dst *float64, ldd int, groups int)

//go:noescape
func sparseRow(dst *float64, p int, a *float64, lda int, cols *int, vals *float64, nnz int)

//go:noescape
func maxMagnitude16(vs *float64, n int) uint64

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// hasFMA3 is CPUID leaf 1, ECX bit 12: the processor has FMA3.
var hasFMA3 = func() bool {
	_, _, c, _ := cpuid(1, 0)
	return c&(1<<12) != 0
}()

// useAVX2 is decided once, from what the processor and the operating system
// report and nothing else: the CPU has AVX, FMA3 and AVX2, and the OS saves
// the ymm state (OSXSAVE set, XCR0 bits 1 and 2). The m-m tiles need FMA3,
// which Intel and AMD processors with AVX2 have as well.
var useAVX2 = hasFMA3 && func() bool {
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

// useAVX512 is decided the same way: useAVX2, the CPU has AVX512F (CPUID
// leaf 7, EBX bit 16), and the OS saves the opmask and zmm state as well
// (XCR0 bits 5–7 beside bits 1 and 2).
var useAVX512 = useAVX2 && func() bool {
	if lo, _ := xgetbv(); lo&0xe6 != 0xe6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<16) != 0
}()

// PinKernels narrows the kernel choice made at init, for a test or
// benchmark that holds each form to its reference — here or in a package
// that dispatches on VectorUnit: the vector kernels run only where avx2 is
// set, the zmm pairs only where avx512 is, and neither where the processor
// lacks them. It returns what restores the choice made at init. Nothing
// but tests and benchmarks calls it.
func PinKernels(avx2, avx512 bool) (restore func()) {
	was2, was512 := useAVX2, useAVX512
	useAVX2, useAVX512 = avx2 && was2, avx512 && was512
	return func() { useAVX2, useAVX512 = was2, was512 }
}
