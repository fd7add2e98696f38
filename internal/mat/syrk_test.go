package mat

import (
	"math/rand"
	"testing"

	"phmse/internal/par"
)

// The symmetry-aware kernels must agree exactly (not just approximately)
// with naive dense references computed in the same dot-product order, across
// random dimensions, strided views and team sizes. Exact agreement is what
// lets the filter drop the post-hoc symmetrization pass.

var teamSizes = []int{1, 2, 4, 7}

// randMat fills an r×c matrix with random values. When offset is true the
// matrix is a view into a larger allocation, so Stride != Cols and row
// slices are non-contiguous — the layout the hierarchical solver produces.
func randMatView(rng *rand.Rand, r, c int, offset bool) *Mat {
	if !offset {
		m := New(r, c)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		return m
	}
	back := New(r+3, c+5)
	for i := range back.Data {
		back.Data[i] = rng.NormFloat64()
	}
	return back.View(2, 3, r, c)
}

// refMulNT returns A·Bᵀ with the same Dot kernel the triangular code uses,
// so the comparison is bitwise.
func refMulNT(a, b *Mat) *Mat {
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			out.Set(i, j, Dot(a.Row(i), b.Row(j)))
		}
	}
	return out
}

func TestSyrkSubAddEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(97)
		m := 1 + rng.Intn(33)
		offset := trial%2 == 1
		team := par.NewTeam(teamSizes[trial%len(teamSizes)])

		a := randMatView(rng, n, m, offset)
		c0 := randMatView(rng, n, n, offset)
		aat := refMulNT(a, a)

		for _, sign := range []float64{-1, +1} {
			got := c0.Clone()
			if sign < 0 {
				lowerNTPar(team, got, a, a, -1) // the Cholesky trailing update
			} else {
				SyrkAddPar(team, got, a)
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					var want float64
					if j <= i {
						want = c0.At(i, j) + sign*aat.At(i, j)
					} else {
						want = c0.At(i, j) // strict upper untouched
					}
					if got.At(i, j) != want {
						t.Fatalf("n=%d m=%d sign=%v: (%d,%d) got %g want %g",
							n, m, sign, i, j, got.At(i, j), want)
					}
				}
			}
		}
	}
}

func TestSyr2kSubEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(97)
		m := 1 + rng.Intn(33)
		offset := trial%2 == 0
		team := par.NewTeam(teamSizes[trial%len(teamSizes)])

		a := randMatView(rng, n, m, offset)
		b := randMatView(rng, n, m, offset)
		c0 := randMatView(rng, n, n, offset)
		abt := refMulNT(a, b)

		got, lower := c0.Clone(), c0.Clone()
		Syr2kSubPar(team, got, a, b)
		Syr2kSubLowerPar(team, lower, a, b)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				want := c0.At(i, j) - abt.At(i, j)
				if got.At(i, j) != want || lower.At(i, j) != want {
					t.Fatalf("n=%d: lower (%d,%d) mismatch", n, i, j)
				}
				if got.At(j, i) != want {
					t.Fatalf("n=%d: mirror (%d,%d) mismatch", n, j, i)
				}
				if j < i && lower.At(j, i) != c0.At(j, i) {
					t.Fatalf("n=%d: lower form wrote strict upper (%d,%d)", n, j, i)
				}
			}
		}
	}
}

func TestSyr2kPairSubEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(97)
		m := 1 + rng.Intn(33)
		team := par.NewTeam(teamSizes[trial%len(teamSizes)])

		a := randMatView(rng, n, m, trial%2 == 1)
		b := randMatView(rng, n, m, trial%2 == 0)
		c0 := randMatView(rng, n, n, false)
		abt, bat := refMulNT(a, b), refMulNT(b, a)

		got := c0.Clone()
		Syr2kPairSubLowerPar(team, got, a, b)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				if want := c0.At(i, j) - abt.At(i, j) - bat.At(i, j); got.At(i, j) != want {
					t.Fatalf("n=%d: lower (%d,%d) mismatch", n, i, j)
				}
				if j < i && got.At(j, i) != c0.At(j, i) {
					t.Fatalf("n=%d: strict upper (%d,%d) written", n, j, i)
				}
			}
		}
	}
}

func TestMirrorLower(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, n := range []int{1, 2, 17, 64} {
		for _, p := range teamSizes {
			m := randMatView(rng, n, n, true)
			want := m.Clone()
			MirrorLowerPar(par.NewTeam(p), m)
			for i := 0; i < n; i++ {
				for j := 0; j <= i; j++ {
					if m.At(i, j) != want.At(i, j) {
						t.Fatal("lower triangle changed")
					}
					if m.At(j, i) != m.At(i, j) {
						t.Fatal("not symmetric after mirror")
					}
				}
			}
		}
	}
}

func TestSyrkDimensionPanics(t *testing.T) {
	team := par.NewTeam(2)
	for name, f := range map[string]func(){
		"syrk-rect":   func() { SyrkAddPar(team, New(3, 4), New(3, 2)) },
		"syrk-rows":   func() { SyrkAddPar(team, New(3, 3), New(4, 2)) },
		"syr2k-cols":  func() { Syr2kSubLowerPar(team, New(3, 3), New(3, 2), New(3, 5)) },
		"syr2k-rows":  func() { Syr2kPairSubLowerPar(team, New(3, 3), New(2, 2), New(3, 2)) },
		"syr2k-rect":  func() { Syr2kSubPar(team, New(3, 4), New(3, 2), New(3, 2)) },
		"mirror-rect": func() { MirrorLowerPar(team, New(3, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}
