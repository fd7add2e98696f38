package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"phmse/internal/faultinject"
	"phmse/internal/filter"
	"phmse/internal/hier"
	"phmse/internal/molecule"
)

// A hierarchical solve whose first cycles hit an indefinite batch in one
// leaf must quarantine it — naming the owning node in the record — retry
// it at later linearization points, and still converge.
func TestHierQuarantineRecordsNode(t *testing.T) {
	p := helixProblem(1)
	p.Tree = hier.GraphPartition(len(p.Atoms), &p.Constraints, 8)
	e, err := New(p, Config{Mode: Hierarchical, MaxCycles: 60})
	if err != nil {
		t.Fatal(err)
	}
	var target string
	e.Root().Walk(func(n *hier.Node) {
		if target == "" && n.IsLeaf() {
			target = n.Name
		}
	})
	if target == "" {
		t.Fatal("no leaf node")
	}
	faultinject.Set(&faultinject.Hooks{
		Cholesky: func(s faultinject.Site) bool {
			return s.Tag == p.Name && s.Node == target && s.Batch == 0 && s.Cycle <= 2
		},
	})
	t.Cleanup(faultinject.Reset)

	sol, err := e.Solve(molecule.Perturbed(p, 0.3, 31))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Diagnostics == nil || len(sol.Diagnostics.Quarantined) == 0 {
		t.Fatalf("diagnostics = %+v, want a quarantine record", sol.Diagnostics)
	}
	q := sol.Diagnostics.Quarantined[0]
	if q.Node != target || q.Batch != 0 {
		t.Fatalf("record = %+v, want node %q batch 0", q, target)
	}
	if q.FirstCycle != 1 || q.LastCycle != 2 || q.Cycles != 2 {
		t.Fatalf("record window = %+v, want cycles 1..2", q)
	}
	if sol.Residual > 5 {
		t.Fatalf("residual %g after quarantined solve", sol.Residual)
	}
}

// Pervasive injection across the whole tree leaves no applicable batch;
// the hierarchical driver must fail typed instead of spinning.
func TestHierNoProgressFailsTyped(t *testing.T) {
	faultinject.Set(&faultinject.Hooks{
		Cholesky: func(faultinject.Site) bool { return true },
	})
	t.Cleanup(faultinject.Reset)

	p := helixProblem(1)
	p.Tree = hier.GraphPartition(len(p.Atoms), &p.Constraints, 8)
	e, err := New(p, Config{Mode: Hierarchical})
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Solve(molecule.Perturbed(p, 0.3, 31))
	if !errors.Is(err, filter.ErrIndefinite) {
		t.Fatalf("err = %v, want ErrIndefinite", err)
	}
	var ind *filter.Indefinite
	if !errors.As(err, &ind) || ind.Node == "" {
		t.Fatalf("typed error %#v should name the node", err)
	}
}

// What containment reports does not depend on which subtree finishes
// first. On a protein, whose residue fans run many subtrees at once, one
// processor and three give the same diagnostics, quarantine records in the
// same order, and the same error when the no-progress check stops the
// solve.
func TestContainmentReportsIndependentOfWidth(t *testing.T) {
	p := molecule.Protein(24, 7)
	init := molecule.Perturbed(p, 0.3, 31)
	for _, c := range []struct {
		name string
		fail func(faultinject.Site) bool
	}{
		{name: "quarantined", fail: func(s faultinject.Site) bool { return s.Batch == 0 && s.Cycle <= 2 }},
		{name: "no progress", fail: func(faultinject.Site) bool { return true }},
	} {
		t.Run(c.name, func(t *testing.T) {
			faultinject.Set(&faultinject.Hooks{Cholesky: c.fail})
			t.Cleanup(faultinject.Reset)
			var diags []*filter.DiagSnapshot
			var errs []string
			for _, procs := range []int{1, 3} {
				e, err := New(p, Config{Mode: Hierarchical, Procs: procs, MaxCycles: 4})
				if err != nil {
					t.Fatal(err)
				}
				sol, err := e.Solve(init)
				if sol != nil {
					diags = append(diags, sol.Diagnostics)
				}
				errs = append(errs, fmt.Sprint(err))
			}
			if errs[0] != errs[1] {
				t.Fatalf("error at 1 processor:\n%s\nat 3:\n%s", errs[0], errs[1])
			}
			if c.name == "quarantined" {
				if len(diags) != 2 || len(diags[0].Quarantined) < 2 {
					t.Fatalf("want two solutions quarantining several batches, got %d solutions, error %s", len(diags), errs[0])
				}
				if !reflect.DeepEqual(diags[0], diags[1]) {
					t.Fatalf("diagnostics at 1 processor:\n%+v\nat 3:\n%+v", diags[0], diags[1])
				}
			} else if errs[0] == "<nil>" {
				t.Fatal("the solve did not fail")
			}
		})
	}
}

// Every solution carries diagnostics; a clean solve's are empty apart
// from the per-cycle RMS trajectory.
func TestSolutionDiagnosticsPopulated(t *testing.T) {
	p := helixProblem(1)
	p.Tree = hier.GraphPartition(len(p.Atoms), &p.Constraints, 8)
	for _, mode := range []Mode{Flat, Hierarchical} {
		e, err := New(p, Config{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		sol, err := e.Solve(molecule.Perturbed(p, 0.2, 7))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		d := sol.Diagnostics
		if d == nil {
			t.Fatalf("%v: nil diagnostics", mode)
		}
		if d.RidgeRetries != 0 || d.Rollbacks != 0 || len(d.Quarantined) != 0 {
			t.Fatalf("%v: clean solve reported containment: %+v", mode, d)
		}
		if len(d.RMSTrajectory) != sol.Cycles {
			t.Fatalf("%v: trajectory %d entries, %d cycles", mode, len(d.RMSTrajectory), sol.Cycles)
		}
	}
}
