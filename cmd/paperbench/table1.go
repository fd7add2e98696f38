package main

import (
	"fmt"
	"time"

	"phmse/internal/core"
	"phmse/internal/geom"
	"phmse/internal/hier"
	"phmse/internal/machine"
	"phmse/internal/molecule"
	"phmse/internal/trace"
	"phmse/internal/vm"
)

// paperTable1 holds the published Table 1 rows for comparison:
// helix length → {flat total s, flat per-constraint, hier total, hier
// per-constraint, speedup}.
var paperTable1 = map[int][5]float64{
	1:  {1.16, 0.00172, 0.65, 0.00096, 1.78},
	2:  {7.78, 0.00494, 2.42, 0.00154, 3.21},
	4:  {54.09, 0.01642, 8.45, 0.00257, 6.40},
	8:  {427.23, 0.06274, 30.98, 0.00455, 13.79},
	16: {3436.18, 0.24857, 114.20, 0.00826, 30.09},
}

// table1 compares the flat and hierarchical organizations over one
// complete cycle of constraint application (Table 1 / Figure 5): first
// with real kernels on this host, then on the DASH virtual-time model for
// the full sweep.
func table1(cfg config) error {
	header("Table 1 / Figure 5 — flat vs hierarchical organization")

	realSizes := []int{1, 2, 4}
	if cfg.full {
		realSizes = []int{1, 2, 4, 8, 16}
	}
	fmt.Println("\n[real kernels on this host; one cycle over all constraints]")
	fmt.Println("  bp  atoms  scalar |  flat(s)  per-cons    m-m(s) |  hier(s)  per-cons    m-m(s) | speedup")
	for _, bp := range realSizes {
		h := molecule.Helix(bp)
		init := h.TruePositions()
		flatSec, flatMM, err := timedSolve(h, init, core.Flat)
		if err != nil {
			return err
		}
		hierSec, hierMM, err := timedSolve(h, init, core.Hierarchical)
		if err != nil {
			return err
		}
		sc := float64(h.ScalarDim())
		fmt.Printf("  %2d  %5d  %6d | %8.3f  %.6f  %8.3f | %8.3f  %.6f  %8.3f | %6.2f\n",
			bp, len(h.Atoms), h.ScalarDim(),
			flatSec, flatSec/sc, flatMM, hierSec, hierSec/sc, hierMM, flatSec/hierSec)
	}

	fmt.Println("\n[DASH virtual-time model; full sweep]")
	fmt.Println("  bp  atoms  scalar |  flat(s)  per-cons |  hier(s)  per-cons | speedup | paper speedup")
	mach := machine.DASH()
	for _, bp := range []int{1, 2, 4, 8, 16} {
		h := molecule.Helix(bp)
		root, err := hier.Build(h.Tree, h.Constraints)
		if err != nil {
			return err
		}
		if err := root.Prepare(16); err != nil {
			return err
		}
		hierWall := vm.Run(root, mach, 1, nil).Wall
		flatWall := vm.RunFlat(3*len(h.Atoms), vm.FlatShapes(h.ScalarDim(), 16, 6), mach, 1).Wall
		sc := float64(h.ScalarDim())
		fmt.Printf("  %2d  %5d  %6d | %8.2f  %.6f | %8.2f  %.6f | %6.2f  | %6.2f\n",
			bp, len(h.Atoms), h.ScalarDim(),
			flatWall, flatWall/sc, hierWall, hierWall/sc, flatWall/hierWall, paperTable1[bp][4])
	}
	fmt.Println("\npaper Table 1 (measured on one processor in 1996):")
	for _, bp := range []int{1, 2, 4, 8, 16} {
		r := paperTable1[bp]
		fmt.Printf("  %2d bp: flat %8.2fs (%.5f/cons)  hier %7.2fs (%.5f/cons)  speedup %5.2f\n",
			bp, r[0], r[1], r[2], r[3], r[4])
	}
	return nil
}

// timedSolve runs exactly one cycle of constraint application with real
// kernels and returns the wall-clock seconds (setup excluded, matching the
// paper's exclusion of input and initialization time) and how many of them
// the recorder accounts to the m-m class — the covariance update, which is
// what the hierarchy shrinks.
func timedSolve(p *molecule.Problem, init []geom.Vec3, mode core.Mode) (sec, mm float64, err error) {
	var rec trace.Collector
	est, err := core.New(p, core.Config{Mode: mode, MaxCycles: 1, BatchSize: 16, Recorder: &rec})
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	if _, err := est.Solve(init); err != nil {
		return 0, 0, err
	}
	return time.Since(start).Seconds(), rec.Times()[trace.MatMat], nil
}
