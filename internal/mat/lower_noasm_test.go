//go:build !amd64

package mat

// fmaNote: off amd64 there are no vector tiles, and math.FMA is whatever
// this GOARCH provides.
func fmaNote() string {
	return "not amd64: the Go tile only, its math.FMA this architecture's own"
}
