package mat

// pinKernels narrows the package's kernel choice for a test or benchmark:
// the vector kernels run only where avx2 is set, the zmm pairs only where
// avx512 is, and neither where the processor lacks them. It returns what
// restores the choice made at init.
func pinKernels(avx2, avx512 bool) (restore func()) {
	was2, was512 := useAVX2, useAVX512
	useAVX2, useAVX512 = avx2 && was2, avx512 && was512
	return func() { useAVX2, useAVX512 = was2, was512 }
}
