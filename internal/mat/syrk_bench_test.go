package mat

import (
	"fmt"
	"math/rand"
	"testing"

	"phmse/internal/par"
)

// Micro-benchmarks for the m-m covariance-update class: the pre-PR2 dense
// pipeline (full K·Aᵀ product plus averaging symmetrization) against the
// symmetry-aware triangular kernels. Expect ~2× on the simple form and the
// Joseph-form composition.

func benchOperands(n, m int) (c, a, b *Mat) {
	rng := rand.New(rand.NewSource(int64(n*1000 + m)))
	c, a, b = New(n, n), New(n, m), New(n, m)
	for i := range c.Data {
		c.Data[i] = rng.NormFloat64()
	}
	MirrorLower(c)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
		b.Data[i] = rng.NormFloat64()
	}
	return
}

func BenchmarkCovUpdateSimple(bm *testing.B) {
	// n = 2598 at team 2 is the ribo30S root: C (54 MB) fits in no cache.
	for _, tc := range []struct{ n, procs int }{{129, 1}, {516, 1}, {2598, 2}} {
		const m = 16
		n := tc.n
		c, a, b := benchOperands(n, m)
		team := par.NewTeam(tc.procs)
		bm.Run(fmt.Sprintf("dense/n=%d", n), func(bm *testing.B) {
			for i := 0; i < bm.N; i++ {
				MulSubNTPar(team, c, a, b)
				SymmetrizePar(team, c)
			}
		})
		bm.Run(fmt.Sprintf("syrk/n=%d", n), func(bm *testing.B) {
			for i := 0; i < bm.N; i++ {
				Syr2kSubPar(team, c, a, b)
			}
		})
		bm.Run(fmt.Sprintf("lower/n=%d", n), func(bm *testing.B) {
			for i := 0; i < bm.N; i++ {
				Syr2kSubLowerPar(team, c, a, b)
			}
		})
	}
}

func BenchmarkCovUpdateJoseph(bm *testing.B) {
	for _, n := range []int{129, 516} {
		const m = 16
		c, k, a := benchOperands(n, m)
		l := New(m, m)
		for i := 0; i < m; i++ {
			l.Set(i, i, 1)
		}
		w := New(n, m)
		team := par.NewTeam(1)
		bm.Run(fmt.Sprintf("dense/n=%d", n), func(bm *testing.B) {
			for i := 0; i < bm.N; i++ {
				MulSubNTPar(team, c, k, a)
				MulSubNTPar(team, c, a, k)
				MulPar(team, w, k, l)
				MulAddNTPar(team, c, w, w)
				SymmetrizePar(team, c)
			}
		})
		bm.Run(fmt.Sprintf("syrk/n=%d", n), func(bm *testing.B) {
			for i := 0; i < bm.N; i++ {
				MulPar(team, w, k, l)
				SyrkAddPar(team, c, w)
				Syr2kPairSubPar(team, c, k, a)
			}
		})
	}
}
