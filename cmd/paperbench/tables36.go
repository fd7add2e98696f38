package main

import (
	"fmt"

	"phmse/internal/hier"
	"phmse/internal/machine"
	"phmse/internal/molecule"
	"phmse/internal/trace"
	"phmse/internal/vm"
)

// paperRow is one published row of Tables 3–6.
type paperRow struct {
	np    int
	time  float64
	spdup float64
	cls   [6]float64 // d-s chol sys m-m m-v vec
}

var paperTables = map[string][]paperRow{
	"helix/DASH": {
		{1, 483.22, 1.00, [6]float64{22.33, 1.95, 55.07, 384.97, 3.14, 0.99}},
		{2, 246.56, 1.96, [6]float64{11.48, 1.07, 27.53, 193.48, 1.37, 0.69}},
		{4, 122.09, 3.96, [6]float64{5.34, 0.58, 13.38, 95.13, 0.54, 0.34}},
		{6, 93.00, 5.20, [6]float64{3.59, 0.53, 9.28, 59.87, 0.47, 0.27}},
		{8, 57.54, 8.40, [6]float64{2.49, 0.38, 6.32, 43.81, 0.20, 0.19}},
		{10, 52.93, 9.13, [6]float64{2.28, 0.36, 5.39, 36.81, 0.17, 0.18}},
		{12, 44.37, 10.80, [6]float64{2.00, 0.33, 4.54, 30.46, 0.13, 0.16}},
		{14, 42.01, 11.50, [6]float64{1.83, 0.30, 3.89, 27.08, 0.11, 0.17}},
		{16, 33.20, 14.55, [6]float64{1.91, 0.28, 3.70, 24.11, 0.11, 0.17}},
		{20, 31.14, 15.52, [6]float64{1.57, 0.31, 3.41, 20.12, 0.10, 0.15}},
		{24, 25.07, 19.27, [6]float64{1.40, 0.27, 2.56, 17.25, 0.09, 0.15}},
		{28, 24.58, 19.66, [6]float64{1.28, 0.30, 2.38, 15.52, 0.08, 0.14}},
		{32, 20.00, 24.16, [6]float64{1.35, 0.28, 2.12, 13.31, 0.07, 0.15}},
	},
	"ribo/DASH": {
		{1, 924.57, 1.00, [6]float64{17.33, 0.83, 33.18, 861.05, 3.01, 0.61}},
		{2, 446.42, 2.07, [6]float64{9.09, 0.50, 16.90, 411.72, 1.26, 0.33}},
		{4, 215.95, 4.28, [6]float64{4.67, 0.29, 8.35, 197.34, 0.29, 0.17}},
		{6, 137.95, 6.70, [6]float64{2.58, 0.22, 5.09, 120.30, 0.21, 0.12}},
		{8, 110.48, 8.37, [6]float64{2.29, 0.34, 4.73, 92.14, 0.16, 0.10}},
		{10, 87.98, 10.51, [6]float64{1.90, 0.17, 3.13, 75.98, 0.09, 0.10}},
		{12, 72.60, 12.74, [6]float64{1.71, 0.17, 3.01, 62.32, 0.12, 0.08}},
		{14, 67.83, 13.63, [6]float64{1.70, 0.16, 2.62, 56.28, 0.07, 0.08}},
		{16, 60.02, 15.40, [6]float64{1.53, 0.18, 2.31, 51.07, 0.07, 0.08}},
		{20, 49.09, 18.83, [6]float64{1.42, 0.16, 1.93, 41.57, 0.06, 0.08}},
		{24, 43.93, 21.05, [6]float64{1.43, 0.33, 1.62, 37.10, 0.05, 0.08}},
		{32, 38.14, 24.24, [6]float64{1.17, 0.16, 1.37, 32.22, 0.04, 0.08}},
	},
	"helix/Challenge": {
		{1, 159.99, 1.00, [6]float64{6.96, 0.69, 19.48, 128.86, 0.49, 0.33}},
		{2, 82.65, 1.94, [6]float64{3.42, 0.35, 9.76, 66.38, 0.25, 0.16}},
		{4, 42.20, 3.79, [6]float64{1.65, 0.19, 4.93, 33.77, 0.13, 0.09}},
		{6, 32.30, 4.95, [6]float64{1.13, 0.15, 3.28, 22.53, 0.09, 0.06}},
		{8, 21.79, 7.34, [6]float64{0.84, 0.12, 2.46, 17.21, 0.06, 0.05}},
		{10, 18.83, 8.50, [6]float64{0.69, 0.11, 1.97, 13.98, 0.05, 0.04}},
		{12, 15.98, 10.01, [6]float64{0.59, 0.10, 1.67, 11.55, 0.04, 0.05}},
		{14, 14.49, 11.04, [6]float64{0.50, 0.10, 1.43, 10.05, 0.04, 0.04}},
		{16, 11.59, 13.80, [6]float64{0.47, 0.10, 1.26, 8.87, 0.03, 0.04}},
	},
	"ribo/Challenge": {
		{1, 272.53, 1.00, [6]float64{5.37, 0.32, 11.55, 253.52, 0.29, 0.15}},
		{2, 145.41, 1.87, [6]float64{2.68, 0.17, 5.73, 134.46, 0.15, 0.08}},
		{4, 72.56, 3.76, [6]float64{1.33, 0.10, 2.88, 66.68, 0.08, 0.05}},
		{6, 50.35, 5.41, [6]float64{0.91, 0.08, 2.06, 45.19, 0.05, 0.03}},
		{8, 37.26, 7.31, [6]float64{0.69, 0.06, 1.45, 33.98, 0.04, 0.03}},
		{10, 29.44, 9.26, [6]float64{0.56, 0.06, 1.17, 26.77, 0.03, 0.03}},
		{12, 24.96, 10.92, [6]float64{0.48, 0.05, 0.96, 22.44, 0.03, 0.03}},
		{14, 21.91, 12.44, [6]float64{0.43, 0.05, 0.84, 19.69, 0.03, 0.03}},
		{16, 18.86, 14.45, [6]float64{0.40, 0.06, 0.74, 16.85, 0.02, 0.03}},
	},
}

var tableNames = map[string]string{
	"helix/DASH":      "Table 3 / Figure 7 — Helix on DASH",
	"ribo/DASH":       "Table 4 / Figure 8 — ribo30S on DASH",
	"helix/Challenge": "Table 5 / Figure 9 — Helix on Challenge",
	"ribo/Challenge":  "Table 6 / Figure 10 — ribo30S on Challenge",
}

// sweep reproduces one of Tables 3–6 on the virtual-time machine model.
func sweep(cfg config, problem, machName string) error {
	key := problem + "/" + machName
	header(tableNames[key])

	p, mach, root, err := sweepSetup(cfg, problem, machName)
	if err != nil {
		return err
	}

	fmt.Printf("\n%s: %d atoms, %d scalar constraints; %s model, one cycle\n",
		p.Name, len(p.Atoms), p.ScalarDim(), mach.Name)
	fmt.Println(" NP    time  spdup |    d-s   chol    sys     m-m    m-v    vec |  paper time spdup")
	var base float64
	for _, row := range paperTables[key] {
		np := row.np
		r := vm.Run(root, mach, np, vm.Static)
		if np == 1 {
			base = r.Wall
		}
		cs := r.ClassSeconds()
		fmt.Printf("%3d %7.2f %6.2f | %6.2f %6.2f %6.2f %7.2f %6.2f %6.2f |  %8.2f %5.2f\n",
			np, r.Wall, base/r.Wall,
			cs[trace.DenseSparse], cs[trace.Chol], cs[trace.Solve],
			cs[trace.MatMat], cs[trace.MatVec], cs[trace.VecOp],
			row.time, row.spdup)
	}
	fmt.Println("\n(columns: wall time of one constraint cycle; per-class busy time / NP)")
	return nil
}

// sweepSetup builds what a processor sweep of Tables 3–6 runs on: the
// problem ("helix" or "ribo"), the machine model ("DASH" or "Challenge"),
// and the problem's own tree prepared at batch 16.
func sweepSetup(cfg config, problem, machName string) (*molecule.Problem, *machine.Machine, *hier.Node, error) {
	var p *molecule.Problem
	if problem == "helix" {
		p = molecule.Helix(16)
	} else {
		p = molecule.Ribo30S(cfg.seed)
	}
	var mach *machine.Machine
	if machName == "DASH" {
		mach = machine.DASH()
	} else {
		mach = machine.Challenge()
	}
	root, err := hier.Build(p.Tree, &p.Constraints)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := root.Prepare(16); err != nil {
		return nil, nil, nil, err
	}
	return p, mach, root, nil
}
