//go:build !amd64

package mat

// pinKernels: this GOARCH has the Go tile only, so there is nothing to pin.
func pinKernels(avx2, avx512 bool) (restore func()) { return func() {} }
