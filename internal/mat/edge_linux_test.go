package mat

import (
	"fmt"
	"math/rand"
	"syscall"
	"testing"
	"unsafe"

	"phmse/internal/par"
)

// TestMaskedTilesStopAtTheView runs every m-m kernel form the host has on
// destinations whose last word is the last word before an inaccessible
// page: a compact matrix and a strided view. The masked tiles beside the
// diagonal of the last rows hang past the view's end; their lanes there are
// masked off, so they must not fault — a kernel that touched them would
// crash the test — and the triangle must equal lowerTile's bit for bit.
func TestMaskedTilesStopAtTheView(t *testing.T) {
	page := syscall.Getpagesize()
	rng := rand.New(rand.NewSource(39))
	for _, n := range []int{4, 5, 7, 9, 15, 17, 31, 33, 66, 67} {
		for _, stride := range []int{n, n + 5} {
			words := (n-1)*stride + n
			size := (words*8 + page - 1) / page * page
			mem, err := syscall.Mmap(-1, 0, size+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
			if err != nil {
				t.Skipf("mmap: %v", err)
			}
			if err := syscall.Mprotect(mem[size:], syscall.PROT_NONE); err != nil {
				t.Fatalf("mprotect: %v", err)
			}
			data := unsafe.Slice((*float64)(unsafe.Pointer(&mem[size-words*8])), words)
			dst := &Mat{Rows: n, Cols: n, Stride: stride, Data: data}
			a, b, c0 := randMat(rng, n, 16), randMat(rng, n, 16), randMat(rng, n, n)
			want := c0.Clone()
			lowerTile(want, a, b, 0, n, -1)
			lowerTile(want, a, b, n-3, n, -1)
			for _, k := range hostMMKernels() {
				dst.CopyFrom(c0)
				func() {
					defer PinKernels(k.avx2, k.avx512)()
					lowerNTPar(par.NewTeam(1), dst, a, b, -1)
					pb := packPanel(b, n)
					lowerNTPacked(dst, a, b, pb, n-3, n, -1)
					pb.release()
				}()
				sameBits(t, fmt.Sprintf("n=%d stride=%d %s", n, stride, k.name), dst, want)
			}
			if err := syscall.Munmap(mem); err != nil {
				t.Fatal(err)
			}
		}
	}
}
