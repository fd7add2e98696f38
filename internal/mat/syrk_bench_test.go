package mat

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

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
// — C fits L2 there; n = 2598 is the ribo30S root, whose swept triangle
// (27 MB; all of C is 54 MB) is out of L2 and streams from L3 once per
// update. Forms: the mirrored kernel (the bench ladder's syr2k rung; it
// goes when Syr2kSubPar does), the lower-only kernel the filter calls, that
// kernel pinned to the 4×8 ymm tile (the zmm tile's baseline; the same as
// "lower" on a host without AVX-512), and pinned to the portable Go tile.
// The zmm gain on an AVX-512 host is
//
//	go test -run '^$' -bench 'CovUpdateSimple/^lower(-avx2)?$/' ./internal/mat/
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
				{"lower-avx2", func() {
					defer PinKernels(true, false)()
					Syr2kSubLowerPar(team, c, a, b)
				}},
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
			if n == 2598 {
				bm.Run(fmt.Sprintf("lower-after-gap/n=%d/p=%d", n, procs), func(bm *testing.B) {
					benchSweepAfterGap(bm, team, c, a, b)
				})
			}
		}
	}
}

// serialGap is the serial work between two covariance sweeps of a
// root-sized batch update in a solve: the batch's d-s product, gain solve
// and guard scan, run by the team's poster while the rest of the team has
// nothing to claim.
const serialGap = 300 * time.Microsecond

// benchSweepAfterGap times the lower-only sweep as a solve meets it — after
// serialGap of busy work on the calling goroutine, long enough for idle
// members to park — so the time to bring the team back is in it, which
// back-to-back sweeps hide. The gap is excluded from the reported sweep
// time and rate.
func benchSweepAfterGap(bm *testing.B, team *par.Team, c, a, b *Mat) {
	var swept time.Duration
	for i := 0; i < bm.N; i++ {
		for start := time.Now(); time.Since(start) < serialGap; {
		}
		start := time.Now()
		Syr2kSubLowerPar(team, c, a, b)
		swept += time.Since(start)
	}
	n, m := float64(c.Rows), float64(a.Cols)
	bm.ReportMetric(swept.Seconds()*1e3/float64(bm.N), "sweep-ms")
	bm.ReportMetric(n*(n+1)*m*float64(bm.N)/swept.Seconds()/1e9, "Gflop/s")
}
