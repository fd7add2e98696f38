package main

import (
	"fmt"
	"os"
	"path/filepath"

	"phmse/internal/machine"
	"phmse/internal/molecule"
	"phmse/internal/trace"
	"phmse/internal/vm"
)

// figures writes the data series behind Figures 5–10 as CSV files in the
// given directory, ready for any plotting tool:
//
//	figure5.csv  — per-constraint time vs helix length, flat and hierarchical
//	figure6.csv  — per-constraint time vs batch dimension per node size
//	figure7.csv … figure10.csv — speedup and per-class time vs NP
func figures(cfg config, dir string) error {
	header("Figures 5–10 — CSV series → " + dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	// Figure 5: computational efficiency of hierarchical vs flat, on the
	// DASH model so the 16 bp point is affordable.
	f5, err := os.Create(filepath.Join(dir, "figure5.csv"))
	if err != nil {
		return err
	}
	fmt.Fprintln(f5, "base_pairs,scalar_constraints,flat_s_per_constraint,hier_s_per_constraint")
	mach := machine.DASH()
	for _, bp := range []int{1, 2, 4, 8, 16} {
		h := molecule.Helix(bp)
		flatWall, hierWall, err := table1Walls(h, mach)
		if err != nil {
			return err
		}
		sc := float64(h.ScalarDim())
		fmt.Fprintf(f5, "%d,%d,%.6f,%.6f\n", bp, h.ScalarDim(), flatWall/sc, hierWall/sc)
	}
	if err := f5.Close(); err != nil {
		return err
	}

	// Figure 6: measured per-constraint time surface.
	f6, err := os.Create(filepath.Join(dir, "figure6.csv"))
	if err != nil {
		return err
	}
	fmt.Fprintln(f6, "node_atoms,batch_dim,s_per_constraint")
	for _, cell := range table2Cells(cfg) {
		fmt.Fprintf(f6, "%d,%d,%.8f\n", cell.NodeAtoms, cell.BatchDim, cell.PerScalar)
	}
	if err := f6.Close(); err != nil {
		return err
	}

	// Figures 7–10: speedup and time-distribution series.
	for _, spec := range []struct {
		file, problem, mach string
	}{
		{"figure7.csv", "helix", "DASH"},
		{"figure8.csv", "ribo", "DASH"},
		{"figure9.csv", "helix", "Challenge"},
		{"figure10.csv", "ribo", "Challenge"},
	} {
		if err := sweepCSV(cfg, spec.problem, spec.mach, filepath.Join(dir, spec.file)); err != nil {
			return err
		}
	}
	fmt.Println("wrote figure5.csv … figure10.csv")
	return nil
}

func sweepCSV(cfg config, problem, machName, path string) error {
	_, mach, root, err := sweepSetup(cfg, problem, machName)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "np,wall_s,speedup,d_s,chol,sys,m_m,m_v,vec")
	var base float64
	for np := 1; np <= mach.MaxProcs; np++ {
		r := vm.Run(root, mach, np, vm.Static)
		if np == 1 {
			base = r.Wall
		}
		cs := r.ClassSeconds()
		fmt.Fprintf(f, "%d,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f\n",
			np, r.Wall, base/r.Wall,
			cs[trace.DenseSparse], cs[trace.Chol], cs[trace.Solve],
			cs[trace.MatMat], cs[trace.MatVec], cs[trace.VecOp])
	}
	return nil
}
