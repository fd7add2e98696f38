// Benchmark harness regenerating the shape of every table and figure in the
// paper's evaluation. Real-kernel benchmarks (Tables 1–2) run scaled-down
// workloads so the suite stays fast; the processor-sweep benchmarks
// (Tables 3–6, Figures 7–10) execute the full-size schedules on the
// calibrated virtual-time machine models and report model seconds and
// speedups as custom metrics. cmd/paperbench prints the full tables with
// the paper's values alongside.
package phmse_test

import (
	"fmt"
	"testing"

	"phmse"
)

// ---------------------------------------------------------------- Table 1

// BenchmarkTable1 measures one real constraint cycle for the flat and
// hierarchical organizations across helix lengths (Table 1 / Figure 5).
// The hierarchical advantage (flat ns / hier ns) grows with size.
func BenchmarkTable1(b *testing.B) {
	for _, bp := range []int{1, 2, 4} {
		problem := phmse.Helix(bp)
		init := problem.TruePositions()
		perCons := float64(problem.ScalarDim())
		for _, mode := range []phmse.Mode{phmse.Flat, phmse.Hierarchical} {
			b.Run(fmt.Sprintf("%dbp/%v", bp, mode), func(b *testing.B) {
				est, err := phmse.NewEstimator(problem, phmse.Config{Mode: mode, MaxCycles: 1})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := est.Solve(init); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/perCons, "ns/constraint")
			})
		}
	}
}

// ---------------------------------------------------------------- Table 2

// BenchmarkTable2 measures the per-scalar-constraint cost as a function of
// node size and batch dimension (Table 2 / Figure 6). The figure's shape:
// cost rises for tiny batches (no tiling) and for very large batches (the
// O(m³) and O(m²n) terms), with a flat minimum at moderate m.
func BenchmarkTable2(b *testing.B) {
	for _, atoms := range []int{43, 86, 170} {
		for _, batch := range []int{1, 4, 16, 64, 256} {
			b.Run(fmt.Sprintf("atoms=%d/m=%d", atoms, batch), func(b *testing.B) {
				b.ResetTimer()
				var perScalar float64
				for i := 0; i < b.N; i++ {
					cells := phmse.MeasureTable2([]int{atoms}, []int{batch}, 0.25)
					perScalar = cells[0].PerScalar
				}
				b.ReportMetric(perScalar*1e9, "ns/constraint")
			})
		}
	}
}

// ------------------------------------------------------- Tables 3 through 6

// benchSweep runs the full-size virtual-time processor sweep for one
// problem × machine pair and reports the modeled wall time and speedup.
func benchSweep(b *testing.B, problem *phmse.Problem, mach *phmse.Machine, nps []int) {
	est, err := phmse.NewEstimator(problem, phmse.Config{Mode: phmse.Hierarchical})
	if err != nil {
		b.Fatal(err)
	}
	base := phmse.Simulate(est, mach, 1, phmse.Static).Wall
	for _, np := range nps {
		b.Run(fmt.Sprintf("NP=%d", np), func(b *testing.B) {
			var r phmse.SimResult
			for i := 0; i < b.N; i++ {
				r = phmse.Simulate(est, mach, np, phmse.Static)
			}
			b.ReportMetric(r.Wall, "model-s")
			b.ReportMetric(base/r.Wall, "speedup")
		})
	}
}

var dashNPs = []int{1, 2, 4, 6, 8, 12, 16, 24, 32}
var challengeNPs = []int{1, 2, 4, 6, 8, 12, 16}

// BenchmarkTable3 reproduces Helix-16bp on the DASH model (Table 3 /
// Figure 7). Expect ≈ 24–27× speedup at NP=32 with dips at NP=6 and 12.
func BenchmarkTable3(b *testing.B) {
	benchSweep(b, phmse.Helix(16), phmse.DASH(), dashNPs)
}

// BenchmarkTable4 reproduces ribo30S on the DASH model (Table 4 / Figure
// 8). The high-branching tree shows no power-of-two dips.
func BenchmarkTable4(b *testing.B) {
	benchSweep(b, phmse.Ribo30S(1996), phmse.DASH(), dashNPs)
}

// BenchmarkTable5 reproduces Helix-16bp on the Challenge model (Table 5 /
// Figure 9). Expect ≈ 14–15× speedup at NP=16.
func BenchmarkTable5(b *testing.B) {
	benchSweep(b, phmse.Helix(16), phmse.Challenge(), challengeNPs)
}

// BenchmarkTable6 reproduces ribo30S on the Challenge model (Table 6 /
// Figure 10).
func BenchmarkTable6(b *testing.B) {
	benchSweep(b, phmse.Ribo30S(1996), phmse.Challenge(), challengeNPs)
}

// ------------------------------------------------------------ §4.1 analysis

// BenchmarkCombination measures the Figure 3 combination procedure against
// sequential constraint application on the same node — the overhead that
// rules out coarse-grained constraint-partition parallelism (§4.1).
func BenchmarkCombination(b *testing.B) {
	problem := phmse.WithAnchors(phmse.Helix(1), 2, 0.1)
	init := problem.TruePositions()

	b.Run("apply-all", func(b *testing.B) {
		est, err := phmse.NewEstimator(problem, phmse.Config{Mode: phmse.Flat, MaxCycles: 1})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := est.Solve(init); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The combination itself is exercised through the filter package in
	// cmd/paperbench (combine experiment); here we benchmark the closest
	// public-API equivalent: solving the two halves independently.
	half := problem.Constraints.Len() / 2
	rows := problem.Constraints.Rows()
	for name, cons := range map[string]phmse.ConstraintSet{
		"half-a": phmse.ConstraintsOf(rows[:half]...),
		"half-b": phmse.ConstraintsOf(rows[half:]...),
	} {
		sub := &phmse.Problem{Name: name, Atoms: problem.Atoms, Constraints: cons, Tree: problem.Tree}
		b.Run(name, func(b *testing.B) {
			est, err := phmse.NewEstimator(sub, phmse.Config{Mode: phmse.Flat, MaxCycles: 1})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := est.Solve(init); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ------------------------------------------------------------------ Ablations

// BenchmarkAblationBatchSize isolates the batch-dimension design choice on
// a fixed node (DESIGN.md: why the default is 16).
func BenchmarkAblationBatchSize(b *testing.B) {
	problem := phmse.Helix(2)
	init := problem.TruePositions()
	for _, batch := range []int{1, 8, 16, 64, 512} {
		b.Run(fmt.Sprintf("m=%d", batch), func(b *testing.B) {
			est, err := phmse.NewEstimator(problem, phmse.Config{
				Mode: phmse.Flat, MaxCycles: 1, BatchSize: batch,
			})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := est.Solve(init); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDecomposition compares the domain-knowledge hierarchy
// against automatic graph partitioning and blind bisection (§5).
func BenchmarkAblationDecomposition(b *testing.B) {
	base := phmse.Helix(2)
	trees := map[string]*phmse.Group{
		"domain-knowledge": base.Tree,
		"graph-partition":  phmse.GraphPartition(len(base.Atoms), &base.Constraints, 21),
		"index-bisection":  phmse.RecursiveBisection(len(base.Atoms), 21),
	}
	init := base.TruePositions()
	for name, tree := range trees {
		problem := &phmse.Problem{Name: name, Atoms: base.Atoms, Constraints: base.Constraints, Tree: tree}
		b.Run(name, func(b *testing.B) {
			est, err := phmse.NewEstimator(problem, phmse.Config{Mode: phmse.Hierarchical, MaxCycles: 1})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := est.Solve(init); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationIntraNodeParallel measures the real goroutine-parallel
// kernels against the sequential path on this host (correctness of the
// parallel plumbing; on a single-CPU host no wall-clock speedup is
// expected — see the virtual-time benches for modeled scaling).
func BenchmarkAblationIntraNodeParallel(b *testing.B) {
	problem := phmse.Helix(2)
	init := problem.TruePositions()
	for _, procs := range []int{1, 4} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			est, err := phmse.NewEstimator(problem, phmse.Config{
				Mode: phmse.Hierarchical, MaxCycles: 1, Procs: procs,
			})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := est.Solve(init); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationScheduling compares the paper's static processor
// assignment against the §5 dynamic re-grouping extension on the
// virtual-time DASH model, at the non-power-of-two processor count where
// static scheduling dips.
func BenchmarkAblationScheduling(b *testing.B) {
	problem := phmse.Helix(16)
	est, err := phmse.NewEstimator(problem, phmse.Config{Mode: phmse.Hierarchical})
	if err != nil {
		b.Fatal(err)
	}
	dash := phmse.DASH()
	base := phmse.Simulate(est, dash, 1, phmse.Static).Wall
	for _, np := range []int{6, 8, 12} {
		b.Run(fmt.Sprintf("static/NP=%d", np), func(b *testing.B) {
			var r phmse.SimResult
			for i := 0; i < b.N; i++ {
				r = phmse.Simulate(est, dash, np, phmse.Static)
			}
			b.ReportMetric(base/r.Wall/float64(np), "efficiency")
		})
		b.Run(fmt.Sprintf("dynamic/NP=%d", np), func(b *testing.B) {
			var r phmse.SimResult
			for i := 0; i < b.N; i++ {
				r = phmse.Simulate(est, dash, np, phmse.Dynamic)
			}
			b.ReportMetric(base/r.Wall/float64(np), "efficiency")
		})
	}
}

// BenchmarkBaselines times the three method families of the related-work
// comparison on the same helix problem (§6; examples/compare prints the
// accuracy side).
func BenchmarkBaselines(b *testing.B) {
	problem := phmse.WithAnchors(phmse.Helix(1), 3, 0.05)
	b.Run("distance-geometry", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := phmse.DistanceGeometry(problem, int64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("energy-minimization", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pos := phmse.Perturbed(problem, 0.4, int64(i))
			phmse.EnergyMinimize(problem, pos, 200)
		}
	})
	b.Run("probabilistic", func(b *testing.B) {
		est, err := phmse.NewEstimator(problem, phmse.Config{Mode: phmse.Hierarchical, MaxCycles: 20})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := est.Solve(phmse.Perturbed(problem, 0.4, int64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
}
