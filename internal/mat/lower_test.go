package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"phmse/internal/par"
)

// The vector m-m kernel against the Go tile and the entry-at-a-time loop,
// bit for bit. On a machine without AVX2 (or another GOARCH) lowerNTPacked
// *is* the Go tile and these compare it with the loop alone; on amd64 with
// AVX2 both kernels run from the same table, so neither can rot unseen.

// naiveLower is the definition: rows [r0, r1) of the lower triangle of
// dst ← dst + sign·A·Bᵀ, one ascending-k dot product per entry.
func naiveLower(dst, a, b *Mat, r0, r1 int, sign float64) {
	for i := r0; i < r1; i++ {
		ai, dr := a.Row(i), dst.Row(i)
		for j := 0; j <= i; j++ {
			dr[j] += sign * Dot(ai, b.Row(j))
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

func TestVectorKernelMatchesGoTile(t *testing.T) {
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
					want, tile, got := fresh(), fresh(), fresh()
					naiveLower(want, a, b, 0, n, sign)
					lowerTile(tile, a, b, 0, n, sign)
					lowerNTPar(teams[0], got, a, b, sign)
					sameBits(t, what+" Go tile vs loop", tile, want)
					sameBits(t, what+" team of one vs loop", got, want)
					team := teams[(n+m+mask)%len(teams)]
					got = fresh()
					lowerNTPar(team, got, a, b, sign)
					sameBits(t, fmt.Sprintf("%s team=%d", what, team.Size()), got, want)
				}
				// The entry points over it: the pair form's two sweeps per
				// 16-row block with both panels packed once, the mirror
				// inside a chunk, the one-operand forms.
				for e, ep := range mmEntryPoints {
					got, team := fresh(), teams[(n+mask+e)%len(teams)]
					ep.run(team, got, a, b)
					sameBits(t, fmt.Sprintf("n=%d m=%d class=%d views=%03b %s team=%d", n, m, class, mask, ep.name, team.Size()), got, wants[e])
				}
			}
			if n > 70 {
				continue
			}
			// Row ranges no chunking hands out: starting off a tile
			// boundary, shorter than a tile, ending anywhere. The updates
			// pile up on one pair of destinations, so a wrong entry — or a
			// row outside a range that was written — stays wrong.
			strided := (n+m)%2 == 0
			a, b := sameView(a0, strided), sameView(b0, !strided)
			want, got := sameView(c0, strided), sameView(c0, strided)
			pb := packPanel(b, n)
			for r0 := 0; r0 < n; r0++ {
				hs := []int{1, 2, 3, 5, 9, 17}
				if r0%8 == 3 {
					hs = append(hs, n)
				}
				for _, h := range hs {
					r1 := min(r0+h, n)
					lowerTile(want, a, b, r0, r1, -1)
					lowerNTPacked(got, a, b, pb, r0, r1, -1)
				}
				sameBits(t, fmt.Sprintf("n=%d m=%d class=%d rows [%d,…)", n, m, class, r0), got, want)
			}
			pb.release()
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
