package mat

import (
	"fmt"
	"math/rand"
	"testing"

	"phmse/internal/par"
)

// Micro-benchmarks for the m-m covariance-update class: the forms of the
// triangular update that are called somewhere, by rate.

func benchOperands(n, m int) (c, a, b *Mat) {
	rng := rand.New(rand.NewSource(int64(n*1000 + m)))
	c, a, b = New(n, n), New(n, m), New(n, m)
	for i := range c.Data {
		c.Data[i] = rng.NormFloat64()
	}
	mirrorNaive(c)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
		b.Data[i] = rng.NormFloat64()
	}
	return
}

// BenchmarkCovUpdateSimple times one simple-form covariance update
// C ← C − K·Aᵀ at m = 16 and reports Gflop/s over the n(n+1)m flops of the
// triangle. n = 66, 129 and 258 are the node sizes of the serving workloads
// — C fits L2 there; n = 2598 is the ribo30S root, whose C (54 MB) is out
// of L2 and streams from L3 once per update. Forms: the mirrored kernel
// (the bench ladder's syr2k rung; it goes when Syr2kSubPar does), the
// lower-only kernel the filter calls, and that kernel pinned to the
// portable Go tile — the baseline the vector kernel is measured against on
// this machine.
func BenchmarkCovUpdateSimple(bm *testing.B) {
	const m = 16
	for _, n := range []int{66, 129, 258, 516, 2598} {
		c, a, b := benchOperands(n, m)
		for _, procs := range []int{1, 2} {
			team := par.NewTeam(procs)
			for _, form := range []struct {
				name string
				run  func()
			}{
				{"syrk", func() { Syr2kSubPar(team, c, a, b) }},
				{"lower", func() { Syr2kSubLowerPar(team, c, a, b) }},
				{"lower-gotile", func() {
					team.ForTri(n, func(lo, hi int) { lowerTile(c, a, b, lo, hi, -1) })
				}},
			} {
				bm.Run(fmt.Sprintf("%s/n=%d/p=%d", form.name, n, procs), func(bm *testing.B) {
					for i := 0; i < bm.N; i++ {
						form.run()
					}
					flops := float64(n) * float64(n+1) * m * float64(bm.N)
					bm.ReportMetric(flops/bm.Elapsed().Seconds()/1e9, "Gflop/s")
				})
			}
		}
	}
}

// BenchmarkCovUpdateJoseph times the Joseph-form covariance update as the
// filter composes it — W = K·L, C += W·Wᵀ, C −= K·Aᵀ + A·Kᵀ on the lower
// triangle — and reports Gflop/s over the 3n(n+1)m flops of its three
// triangular sweeps.
func BenchmarkCovUpdateJoseph(bm *testing.B) {
	for _, n := range []int{129, 516} {
		const m = 16
		c, k, a := benchOperands(n, m)
		l := Identity(m)
		w := New(n, m)
		team := par.NewTeam(1)
		bm.Run(fmt.Sprintf("lower/n=%d", n), func(bm *testing.B) {
			for i := 0; i < bm.N; i++ {
				MulPar(team, w, k, l)
				SyrkAddPar(team, c, w)
				Syr2kPairSubLowerPar(team, c, k, a)
			}
			flops := 3 * float64(n) * float64(n+1) * m * float64(bm.N)
			bm.ReportMetric(flops/bm.Elapsed().Seconds()/1e9, "Gflop/s")
		})
	}
}
