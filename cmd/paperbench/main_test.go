package main

import (
	"fmt"
	"strings"
	"testing"

	"phmse/internal/machine"
	"phmse/internal/molecule"
	"phmse/internal/vm"
	"phmse/internal/workest"
)

func TestUniqueSorted(t *testing.T) {
	cells := []workest.Measurement{
		{NodeAtoms: 170, BatchDim: 4},
		{NodeAtoms: 43, BatchDim: 16},
		{NodeAtoms: 170, BatchDim: 16},
		{NodeAtoms: 43, BatchDim: 4},
	}
	atoms := uniqueSorted(cells, func(m workest.Measurement) int { return m.NodeAtoms })
	if len(atoms) != 2 || atoms[0] != 43 || atoms[1] != 170 {
		t.Fatalf("atoms = %v", atoms)
	}
	batches := uniqueSorted(cells, func(m workest.Measurement) int { return m.BatchDim })
	if len(batches) != 2 || batches[0] != 4 || batches[1] != 16 {
		t.Fatalf("batches = %v", batches)
	}
}

// The embedded reference tables must be internally consistent: NP strictly
// increasing, times decreasing, speedup = time(1)/time(NP) within rounding,
// and positive class entries.
func TestPaperTablesIntegrity(t *testing.T) {
	for key, rows := range paperTables {
		if rows[0].np != 1 || rows[0].spdup != 1 {
			t.Fatalf("%s: first row not NP=1", key)
		}
		base := rows[0].time
		for i, r := range rows {
			if i > 0 {
				if r.np <= rows[i-1].np {
					t.Fatalf("%s: NP not increasing at row %d", key, i)
				}
				if r.time >= rows[i-1].time {
					t.Fatalf("%s: time not decreasing at NP=%d", key, r.np)
				}
			}
			implied := base / r.time
			if implied/r.spdup > 1.02 || implied/r.spdup < 0.98 {
				t.Fatalf("%s NP=%d: speedup %g inconsistent with times (%g)", key, r.np, r.spdup, implied)
			}
			for c, v := range r.cls {
				if v <= 0 {
					t.Fatalf("%s NP=%d: class %d non-positive", key, r.np, c)
				}
			}
		}
	}
	if len(paperTables) != 4 {
		t.Fatalf("expected 4 reference tables, have %d", len(paperTables))
	}
}

// The reproduced Tables 3–6 hold still: the modeled wall time of every row
// under the static assignment, as `paperbench table3`…`table6` print it at
// the default seed. A change to sched, vm or the machine models that moves
// one of them has to say so here.
func TestReproducedTablesWall(t *testing.T) {
	want := map[string][]string{
		"helix/DASH":      {"467.39", "233.71", "116.78", "91.37", "60.76", "53.56", "44.62", "40.39", "31.98", "27.25", "22.73", "20.10", "17.15"},
		"ribo/DASH":       {"1128.48", "565.75", "283.79", "203.64", "152.59", "125.06", "105.12", "91.97", "80.14", "64.64", "54.28", "41.66"},
		"helix/Challenge": {"155.87", "78.13", "39.33", "29.99", "20.01", "17.25", "14.48", "13.13", "10.45"},
		"ribo/Challenge":  {"376.21", "189.44", "95.88", "64.98", "49.03", "39.72", "33.62", "29.34", "25.72"},
	}
	for key, rows := range paperTables {
		problem, machName, _ := strings.Cut(key, "/")
		_, mach, root, err := sweepSetup(config{seed: 1996}, problem, machName)
		if err != nil {
			t.Fatal(err)
		}
		if len(want[key]) != len(rows) {
			t.Fatalf("%s: %d pinned rows for %d in the table", key, len(want[key]), len(rows))
		}
		for i, row := range rows {
			if got := fmt.Sprintf("%.2f", vm.Run(root, mach, row.np, vm.Static).Wall); got != want[key][i] {
				t.Errorf("%s NP=%d: wall %s, want %s", key, row.np, got, want[key][i])
			}
		}
	}
}

func TestPaperTable1Reference(t *testing.T) {
	for bp, row := range paperTable1 {
		if row[0] <= 0 || row[2] <= 0 {
			t.Fatalf("%d bp: non-positive times", bp)
		}
		implied := row[0] / row[2]
		if implied/row[4] > 1.01 || implied/row[4] < 0.99 {
			t.Fatalf("%d bp: speedup %g inconsistent with times (%g)", bp, row[4], implied)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("no-such-experiment", config{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// The virtual-time columns of Table 1 and the series of Figure 5 hold
// still: the DASH model's serial flat and hierarchical walls for every
// helix length, as `paperbench table1` prints them.
func TestReproducedTable1Wall(t *testing.T) {
	want := map[int][2]string{ // bp → flat, hierarchical
		1:  {"2.41", "1.15"},
		2:  {"19.10", "7.62"},
		4:  {"138.33", "31.76"},
		8:  {"1028.16", "123.03"},
		16: {"7838.14", "467.39"},
	}
	mach := machine.DASH()
	for bp, w := range want {
		flat, hierarchical, err := table1Walls(molecule.Helix(bp), mach)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%.2f", flat); got != w[0] {
			t.Errorf("%d bp: flat wall %s, want %s", bp, got, w[0])
		}
		if got := fmt.Sprintf("%.2f", hierarchical); got != w[1] {
			t.Errorf("%d bp: hierarchical wall %s, want %s", bp, got, w[1])
		}
	}
}
