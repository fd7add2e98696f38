package mat

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"phmse/internal/par"
)

// The vector m-m kernel against the Go tile and the entry-at-a-time loop,
// bit for bit. On a machine without AVX2 and FMA3 (or another GOARCH)
// lowerNTPacked *is* the Go tile and these compare it with the loop alone;
// on amd64 with them both kernels run from the same table, so neither can
// rot unseen.

// naiveLower is the definition: rows [r0, r1) of the lower triangle of
// dst ← dst + sign·A·Bᵀ, one fused ascending-k dot product per entry.
func naiveLower(dst, a, b *Mat, r0, r1 int, sign float64) {
	for i := r0; i < r1; i++ {
		ai, dr := a.Row(i), dst.Row(i)
		for j := 0; j <= i; j++ {
			dr[j] += sign * fmaDot(ai, b.Row(j))
		}
	}
}

// sameBits fails at the first entry of two equally shaped matrices that
// differs in any bit — except that a NaN matches any NaN: which payload
// survives x·y or x+y of two NaNs depends on operand order, which neither
// kernel promises.
func sameBits(t *testing.T, what string, got, want *Mat) {
	t.Helper()
	for i := 0; i < want.Rows; i++ {
		for j := 0; j < want.Cols; j++ {
			g, w := got.At(i, j), want.At(i, j)
			if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
				t.Fatalf("%s: (%d,%d) = %v (%#x), want %v (%#x)", what, i, j,
					g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
}

// sprinkle replaces entries of m by special values of one class: 1 — signed
// zeros and subnormals (results must still agree in every bit, the sign of
// a zero included), 2 — those plus ±Inf (equal where finite or infinite,
// NaN where Inf − Inf makes the reference NaN), 3 — those plus NaN.
func sprinkle(rng *rand.Rand, m *Mat, class int) {
	if class == 0 {
		return
	}
	zeros := []float64{0, math.Copysign(0, -1)}
	subnormal := []float64{5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308}
	rare := []float64{math.Inf(1), math.Inf(-1), math.NaN()}[:2+class/3]
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			// Every fifth row is all zeros, so whole sums are ±0; the
			// subnormals are kept sparse because the hardware is slow on
			// them, not because fewer would do.
			switch r := rng.Intn(96); {
			case i%5 == 4 || r < 24:
				row[j] = zeros[rng.Intn(len(zeros))]
			case r < 27:
				row[j] = subnormal[rng.Intn(len(subnormal))]
			case class >= 2 && r < 29:
				row[j] = rare[rng.Intn(len(rare))]
			}
		}
	}
}

// TestVectorKernelMatchesGoTile holds every m-m kernel form the host has —
// the masked zmm pairs, the masked ymm tiles and the Go tile, each pinned
// through PinKernels — to lowerTile and the entry-at-a-time loop, bit for
// bit. Each update runs on a destination whose strict upper triangle and a
// one-tile border around the view hold a signaling NaN (bordered):
// afterwards every lower entry equals lowerTile's and every poisoned word
// is intact, so a lane stored past the diagonal or the view — even one that
// only read the poison into a sum, which quiets it — fails. Shapes n =
// 0…70, 129, 258 and 516, strided operands, and row ranges that start and
// end off a four-row boundary, which reach the tail rows' masked tiles.
func TestVectorKernelMatchesGoTile(t *testing.T) {
	kernels := hostMMKernels()
	logKernels(t, kernels)
	var ns, ms []int
	for n := 0; n <= 70; n++ {
		ns = append(ns, n)
	}
	ns = append(ns, 129, 258, 516)
	for m := 1; m <= 17; m++ {
		ms = append(ms, m)
	}
	ms = append(ms, 32) // the blocked Cholesky's panel width
	teams := []*par.Team{par.NewTeam(1), par.NewTeam(2), par.NewTeam(3), par.NewTeam(7)}

	rng := rand.New(rand.NewSource(24))
	for _, n := range ns {
		for _, m := range ms {
			class := (n + m) % 4
			a0, b0, c0 := randMat(rng, n, m), randMat(rng, n, m), randMat(rng, n, n)
			sprinkle(rng, a0, class)
			sprinkle(rng, b0, class)
			sprinkle(rng, c0, min(class, 1))
			// What each entry point must leave, whatever the layout.
			wants := make([]*Mat, len(mmEntryPoints))
			for e, ep := range mmEntryPoints {
				wants[e] = c0.Clone()
				ep.naive(wants[e], a0, b0)
				if ep.mirrors {
					mirrorNaive(wants[e])
				}
			}
			// Views: bit 0 strides dst, bit 1 a, bit 2 b. Shapes up to four
			// column tiles run all eight combinations, larger ones one
			// and its complement, the big ones one, rotating with m.
			for mask := 0; mask < 8; mask++ {
				if n > 32 && mask != m%8 && (n > 70 || mask != 7-m%8) {
					continue
				}
				a, b := sameView(a0, mask&2 != 0), sameView(b0, mask&4 != 0)
				fresh := func() *Mat { return sameView(c0, mask&1 != 0) }
				for _, sign := range []float64{-1, +1} {
					what := fmt.Sprintf("n=%d m=%d class=%d views=%03b sign=%+g", n, m, class, mask, sign)
					want, tile := fresh(), fresh()
					naiveLower(want, a, b, 0, n, sign)
					lowerTile(tile, a, b, 0, n, sign)
					sameBits(t, what+" Go tile vs loop", tile, want)
					for ki, k := range kernels {
						team := teams[(n+m+mask+ki)%len(teams)]
						back, got := bordered(c0)
						func() {
							defer PinKernels(k.avx2, k.avx512)()
							lowerNTPar(team, got, a, b, sign)
						}()
						sameLower(t, fmt.Sprintf("%s team=%d %s", what, team.Size(), k.name), back, got, want)
					}
				}
				// The entry points over it: the mirror inside a chunk, the
				// one-operand form.
				for e, ep := range mmEntryPoints {
					got, team := fresh(), teams[(n+mask+e)%len(teams)]
					ep.run(team, got, a, b)
					sameBits(t, fmt.Sprintf("n=%d m=%d class=%d views=%03b %s team=%d", n, m, class, mask, ep.name, team.Size()), got, wants[e])
				}
			}
			// Row ranges no chunking hands out: starting off a tile
			// boundary, shorter than a tile, ending anywhere. The updates
			// pile up on one destination per kernel, so a wrong entry — or
			// a row outside a range that was written — stays wrong.
			strided := (n+m)%2 == 0
			a, b := sameView(a0, strided), sameView(b0, !strided)
			r0s := []int{1, 3, 5, 62, 63, n - 7, n - 5, n - 3}
			if n <= 70 {
				r0s = r0s[:0]
				for r0 := 0; r0 < n; r0++ {
					r0s = append(r0s, r0)
				}
			}
			want := sameView(c0, strided)
			for _, k := range kernels {
				back, got := bordered(c0)
				func() {
					defer PinKernels(k.avx2, k.avx512)()
					pb := packPanel(b, n)
					defer pb.release()
					for _, r0 := range r0s {
						hs := []int{1, 2, 3, 5, 9, 17}
						if r0%8 == 3 {
							hs = append(hs, n)
						}
						for _, h := range hs {
							r1 := min(r0+h, n)
							if k == kernels[0] {
								lowerTile(want, a, b, r0, r1, -1)
							}
							lowerNTPacked(got, a, b, pb, r0, r1, -1)
						}
					}
				}()
				sameLower(t, fmt.Sprintf("n=%d m=%d class=%d row ranges %s", n, m, class, k.name), back, got, want)
			}
		}
	}
}

// snan is a signaling NaN. Copies keep its bits, but any arithmetic on it
// returns it quieted, so a word that still holds it was neither written
// nor read into a sum that was stored back.
var snan = math.Float64frombits(0x7ff0_dead_beef_0001)

// bordered returns the lower triangle of the square src as a view inside
// a larger allocation, the strict upper triangle and a one-tile border
// around the view — tileRows rows above and below, a zmm pair's sixteen
// columns left and right — holding snan.
func bordered(src *Mat) (back, view *Mat) {
	n := src.Rows
	back = New(n+2*tileRows, n+4*tileCols)
	for i := range back.Data {
		back.Data[i] = snan
	}
	view = back.View(tileRows, 2*tileCols, n, n)
	for i := 0; i < n; i++ {
		copy(view.Row(i)[:i+1], src.Row(i))
	}
	return back, view
}

// sameLower fails unless the lower triangle of bordered's view equals
// want's bit for bit (a NaN matching any NaN, as in sameBits) and every
// other word of back still holds snan.
func sameLower(t *testing.T, what string, back, view, want *Mat) {
	t.Helper()
	n := view.Rows
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			g, w := view.At(i, j), want.At(i, j)
			if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
				t.Fatalf("%s: (%d,%d) = %v (%#x), want %v (%#x)", what, i, j,
					g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
	for i := 0; i < back.Rows; i++ {
		for j := 0; j < back.Cols; j++ {
			vi, vj := i-tileRows, j-2*tileCols
			inside := vi >= 0 && vi < n && vj >= 0 && vj <= vi
			if !inside && math.Float64bits(back.At(i, j)) != math.Float64bits(snan) {
				t.Fatalf("%s: word (%d,%d) of the view's surroundings or strict upper triangle written: %#x",
					what, vi, vj, math.Float64bits(back.At(i, j)))
			}
		}
	}
}

// poison is a quiet NaN with a payload no arithmetic here produces: a word
// that still holds it was not written, and one that reads it into a sum
// turns the sum NaN.
var poison = math.Float64frombits(0x7ff8_dead_beef_0001)

// poisoned returns a copy of src as a view inside a larger allocation whose
// every other word is poison.
func poisoned(src *Mat) (back, view *Mat) {
	back = New(src.Rows+5, src.Cols+9)
	for i := range back.Data {
		back.Data[i] = poison
	}
	view = back.View(2, 4, src.Rows, src.Cols)
	view.CopyFrom(src)
	return back, view
}

// TestMMKernelsStayInsideTheirView runs every m-m entry point on a
// destination that is a view inside a poisoned allocation, its strict upper
// triangle poisoned too, with operands that are views inside poisoned
// allocations themselves. Afterwards every word outside the view — and, for
// the entry points that do not mirror, the strict upper triangle — still
// holds the poison, and the triangle computed equals the reference: nothing
// beyond an operand's rows and columns reached a sum.
func TestMMKernelsStayInsideTheirView(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, n := range []int{1, 3, 4, 5, 7, 8, 9, 12, 13, 31, 66, 67} {
		for _, m := range []int{1, 3, 16} {
			_, a := poisoned(randMat(rng, n, m))
			_, b := poisoned(randMat(rng, n, m))
			c0 := randMat(rng, n, n)
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					c0.Set(i, j, poison)
				}
			}
			for _, team := range []*par.Team{par.NewTeam(1), par.NewTeam(3)} {
				for _, ep := range mmEntryPoints {
					what := fmt.Sprintf("n=%d m=%d team=%d %s", n, m, team.Size(), ep.name)
					want := c0.Clone()
					ep.naive(want, a, b)
					if ep.mirrors {
						mirrorNaive(want)
					}
					back, view := poisoned(c0)
					ep.run(team, view, a, b)
					sameBits(t, what, view, want)
					for i := 0; i < n; i++ {
						for j := 0; j <= i; j++ {
							if math.IsNaN(view.At(i, j)) {
								t.Fatalf("%s: (%d,%d) is NaN: poison reached a sum", what, i, j)
							}
						}
						for j := i + 1; j < n && !ep.mirrors; j++ {
							if math.Float64bits(view.At(i, j)) != math.Float64bits(poison) {
								t.Fatalf("%s: strict upper (%d,%d) written", what, i, j)
							}
						}
					}
					for i := 0; i < back.Rows; i++ {
						for j := 0; j < back.Cols; j++ {
							inside := i >= 2 && i < 2+n && j >= 4 && j < 4+n
							if !inside && math.Float64bits(back.At(i, j)) != math.Float64bits(poison) {
								t.Fatalf("%s: word (%d,%d) outside the view written", what, i-2, j-4)
							}
						}
					}
				}
			}
		}
	}
}

// TestCholeskyTrailingUpdateStaysInsideItsView: the blocked factorization's
// trailing update reaches the kernel with dst and both operands as views of
// one allocation. Serial and team forms agree in every bit and write
// nothing outside the matrix.
func TestCholeskyTrailingUpdateStaysInsideItsView(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, n := range []int{33, 67, 130} {
		spd := randSPD(rng, n)
		want := spd.Clone()
		if err := Cholesky(want); err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{2, 3} {
			back, view := poisoned(spd)
			if err := CholeskyPar(par.NewTeam(procs), view); err != nil {
				t.Fatal(err)
			}
			sameBits(t, fmt.Sprintf("n=%d procs=%d", n, procs), view, want)
			view.CopyFrom(New(n, n))
			for i, v := range back.Data {
				if v != 0 && math.Float64bits(v) != math.Float64bits(poison) {
					t.Fatalf("n=%d procs=%d: word %d outside the matrix written", n, procs, i)
				}
			}
		}
	}
}

// TestPackedPanelIsReused: the panels the vector kernel packs its operands
// into come from the pool — the pair form's two cost fewer allocations than
// there are panels (none at all, outside the race detector, whose sync.Pool
// drops a quarter of what is put back).
func TestPackedPanelIsReused(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	a, b := randMat(rng, 130, 16), randMat(rng, 130, 16)
	if n := testing.AllocsPerRun(100, func() {
		pa, pb := packPanel(a, 130), packPanel(b, 130)
		pa.release()
		pb.release()
	}); n >= 2 {
		t.Errorf("%v allocations per update for two panels", n)
	}
}

// mmKernel is one m-m kernel a host may run, named by what lowerNTPacked
// executes under it, and the dispatch it is pinned to.
type mmKernel struct {
	name         string
	avx2, avx512 bool
}

// hostMMKernels is every m-m kernel this host has: the Go tile everywhere,
// the ymm tiles (tiles4x8, the diagonal strip in VMASKMOVPD-masked tiles)
// where there are AVX2 and FMA3, and the zmm pairs (tiles4x16z, the strip in
// opmask-masked pairs) where there is AVX-512.
func hostMMKernels() []mmKernel {
	ks := []mmKernel{{"Go tile", false, false}}
	if useAVX2 {
		ks = append(ks, mmKernel{"masked ymm", true, false})
	}
	if useAVX512 {
		ks = append(ks, mmKernel{"masked zmm", true, true})
	}
	return ks
}

func kernelNames(kernels []mmKernel) []string {
	names := make([]string, len(kernels))
	for i, k := range kernels {
		names[i] = k.name
	}
	return names
}

// logKernels logs the kernels a test ran and whether the host has FMA3, so
// a host without AVX-512, AVX2 or FMA3 shows as such.
func logKernels(t *testing.T, kernels []mmKernel) {
	t.Helper()
	t.Logf("m-m kernels run on this host: %s", strings.Join(kernelNames(kernels), ", "))
	t.Log(fmaNote())
	if !useAVX512 {
		t.Log("no AVX-512 on this host: the zmm pairs not run")
	}
}

// TestEveryMMKernelMatchesNaiveLoop runs every m-m kernel the host has on
// the same operands and holds each to the entry-at-a-time loop, bit for
// bit: TestTiledKernelMatchesNaiveLoop's shapes through every entry point;
// row ranges whose blocks have an odd number of full tiles, so the zmm
// pairs leave one to tiles4x8; and row ranges of root-sized triangles
// (n = 1983, 2598) that are strided views inside a larger matrix. It logs
// the kernels it ran, so a host without AVX-512 shows as such.
func TestEveryMMKernelMatchesNaiveLoop(t *testing.T) {
	kernels := hostMMKernels()
	logKernels(t, kernels)
	each := func(k mmKernel, run func()) {
		defer PinKernels(k.avx2, k.avx512)()
		run()
	}

	var ns, ms []int
	for n := 0; n <= 70; n++ {
		ns = append(ns, n)
	}
	ns = append(ns, 129, 516)
	for m := 1; m <= 17; m++ {
		ms = append(ms, m)
	}
	ms = append(ms, 33)
	teams := []*par.Team{par.NewTeam(1), par.NewTeam(2), par.NewTeam(3), par.NewTeam(7)}
	rng := rand.New(rand.NewSource(14))
	for _, n := range ns {
		for _, m := range ms {
			a := randMatView(rng, n, m, (n+m)%2 == 0)
			b := randMatView(rng, n, m, m%3 == 0)
			c0 := randMatView(rng, n, n, false)
			for e, ep := range mmEntryPoints {
				want := c0.Clone()
				ep.naive(want, a, b)
				if ep.mirrors {
					mirrorNaive(want)
				}
				team := teams[(n+m+e)%len(teams)]
				for _, k := range kernels {
					got := c0.Clone()
					each(k, func() { ep.run(team, got, a, b) })
					sameBits(t, fmt.Sprintf("n=%d m=%d team=%d %s, %s", n, m, team.Size(), ep.name, k.name), got, want)
				}
			}
		}
	}

	// Row ranges given to the kernel directly: rows [i, i+4) hold
	// (i+1)/8 full tiles, odd for the blocks starting at 8…15, 24…31, ….
	// Each range starts on or off a block boundary and ends in a whole or
	// a partial block.
	rowRanges := func(n int) [][2]int {
		var rs [][2]int
		for _, r0 := range []int{8, 9, 25, 42, 57, n/2 - 3, n - 11, n - 4} {
			for _, h := range []int{4, 7, 17} {
				if r0 >= 0 && r0 < n {
					rs = append(rs, [2]int{r0, min(r0+h, n)})
				}
			}
		}
		return rs
	}
	for _, n := range []int{129, 1983, 2598} {
		// dst, a and b are views inside larger matrices, as a node's
		// blocks are views of the root state.
		back := New(n+9, n+13)
		dst := back.View(5, 7, n, n)
		for _, m := range []int{1, 15, 16, 17, 33} {
			a := randMatView(rng, n, m, true)
			b := New(n+4, m+6).View(3, 2, n, m)
			b.CopyFrom(randMat(rng, n, m))
			for _, r := range rowRanges(n) {
				r0, r1 := r[0], r[1]
				rows := randMat(rng, r1-r0, n)
				sign := float64(1 - 2*(r0%2))
				want := rows.Clone()
				for i := r0; i < r1; i++ {
					for j := 0; j <= i; j++ {
						want.Data[(i-r0)*want.Stride+j] += sign * fmaDot(a.Row(i), b.Row(j))
					}
				}
				got := dst.View(r0, 0, r1-r0, n)
				for _, k := range kernels {
					got.CopyFrom(rows)
					each(k, func() {
						pb := packPanel(b, r1)
						lowerNTPacked(dst, a, b, pb, r0, r1, sign)
						pb.release()
					})
					sameBits(t, fmt.Sprintf("n=%d m=%d rows [%d,%d) sign=%+g %s", n, m, r0, r1, sign, k.name), got, want)
				}
			}
		}
	}
}
