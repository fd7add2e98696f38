package core

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"phmse/internal/conform"
	"phmse/internal/constraint"
	"phmse/internal/geom"
	"phmse/internal/hier"
	"phmse/internal/molecule"
	"phmse/internal/trace"
)

func helixProblem(bp int) *molecule.Problem {
	// Anchor a few atoms to pin the gauge (global rigid motion) for
	// accuracy comparisons against the reference geometry.
	return molecule.WithAnchors(molecule.Helix(bp), 4, 0.05)
}

func TestModeString(t *testing.T) {
	if Flat.String() != "flat" || Hierarchical.String() != "hierarchical" {
		t.Fatal("Mode.String")
	}
}

// oneLeafOfAll reports how the estimator's tree differs from the flat
// organization's: one leaf holding every atom of the problem, in problem
// order, and every constraint.
func oneLeafOfAll(e *Estimator) error {
	root, p := e.Root(), e.Problem()
	if root == nil || !root.IsLeaf() {
		return fmt.Errorf("tree %v is not one leaf", root)
	}
	if len(root.Atoms) != len(p.Atoms) {
		return fmt.Errorf("leaf holds %d of %d atoms", len(root.Atoms), len(p.Atoms))
	}
	for i, a := range root.Atoms {
		if a != i {
			return fmt.Errorf("leaf slot %d holds atom %d", i, a)
		}
	}
	if got := hier.ComputeStats(root).Scalars; got != p.ScalarDim() {
		return fmt.Errorf("leaf holds %d of %d scalar constraints", got, p.ScalarDim())
	}
	return nil
}

func TestNewFlat(t *testing.T) {
	e, err := New(helixProblem(1), Config{Mode: Flat})
	if err != nil {
		t.Fatal(err)
	}
	if err := oneLeafOfAll(e); err != nil {
		t.Fatal(err)
	}
	if e.Problem() == nil {
		t.Fatal("Problem")
	}
}

// TestZeroConfigSolvesFlat pins what Config's comment says of its zero
// value: the flat organization, a tree of one leaf holding every atom.
func TestZeroConfigSolvesFlat(t *testing.T) {
	var cfg Config
	if cfg.Mode != Flat {
		t.Fatalf("zero Mode is %v", cfg.Mode)
	}
	e, err := New(helixProblem(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := oneLeafOfAll(e); err != nil {
		t.Fatalf("the zero Config: %v", err)
	}
}

func TestNewHierarchical(t *testing.T) {
	e, err := New(helixProblem(2), Config{Mode: Hierarchical, Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if e.Root() == nil {
		t.Fatal("no tree")
	}
	if got := hier.ComputeStats(e.Root()).Scalars; got != e.Problem().ScalarDim() {
		t.Fatalf("tree holds %d of %d scalar constraints", got, e.Problem().ScalarDim())
	}
}

func TestSolveInitLengthMismatch(t *testing.T) {
	e, err := New(helixProblem(1), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Solve(make([]geom.Vec3, 3)); err == nil {
		t.Fatal("no error for wrong init length")
	}
}

// Flat and hierarchical solves both recover the helix geometry from a
// perturbed start, and agree with each other.
func TestSolveRecoversHelixBothModes(t *testing.T) {
	p := helixProblem(1)
	init := molecule.Perturbed(p, 0.4, 17)
	truth := p.TruePositions()

	var sols []*Solution
	for _, mode := range []Mode{Flat, Hierarchical} {
		e, err := New(p, Config{Mode: mode, Tol: 1e-4, MaxCycles: 120})
		if err != nil {
			t.Fatal(err)
		}
		sol, err := e.Solve(init)
		if err != nil {
			t.Fatal(err)
		}
		if !sol.Converged {
			t.Fatalf("%v did not converge: %+v", mode, sol)
		}
		if sol.Residual > 3 {
			t.Fatalf("%v residual %g", mode, sol.Residual)
		}
		rmsd := molecule.RMSD(sol.Positions, truth)
		if rmsd > 0.3 {
			t.Fatalf("%v RMSD to truth %g", mode, rmsd)
		}
		sols = append(sols, sol)
	}
	if d := molecule.RMSD(sols[0].Positions, sols[1].Positions); d > 0.2 {
		t.Fatalf("modes disagree by %g RMSD", d)
	}
}

// solveHierCycles solves p hierarchically on procs processors for at most
// five cycles from a fixed perturbed start.
func solveHierCycles(t *testing.T, p *molecule.Problem, procs int) *Solution {
	t.Helper()
	e, err := New(p, Config{Mode: Hierarchical, Procs: procs, MaxCycles: 5})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := e.Solve(molecule.Perturbed(p, 0.3, 23))
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

// sameBits reports where two solutions differ in a single bit of a
// position, a variance or the cycle count; "" if nowhere.
func sameBits(a, b *Solution) string {
	if a.Cycles != b.Cycles {
		return fmt.Sprintf("cycles %d vs %d", a.Cycles, b.Cycles)
	}
	for i := range a.Positions {
		for c := 0; c < 3; c++ {
			if math.Float64bits(a.Positions[i][c]) != math.Float64bits(b.Positions[i][c]) {
				return fmt.Sprintf("atom %d coordinate %d: %v vs %v", i, c, a.Positions[i][c], b.Positions[i][c])
			}
		}
		if math.Float64bits(a.Variances[i]) != math.Float64bits(b.Variances[i]) {
			return fmt.Sprintf("atom %d variance: %v vs %v", i, a.Variances[i], b.Variances[i])
		}
	}
	return ""
}

// The team's width changes no bit of a solve: sibling subtrees share one
// crew whose members claim loop pieces in any order, and every kernel
// computes a piece the same way whoever runs it and however the rows are
// cut. Checked on a helix, on a smoke-sized ribosome, whose tree is
// regrouped into binary nodes, and on a protein, whose tree is left as
// given, so its residue fans post up to a dozen children at once.
func TestSolveParallelMatchesSequential(t *testing.T) {
	for _, p := range []*molecule.Problem{
		helixProblem(2),
		molecule.Ribo30SWith(molecule.Ribo30SConfig{Helices: 8, Coils: 8, Proteins: 4}),
		molecule.Protein(24, 7),
	} {
		seq := solveHierCycles(t, p, 1)
		for _, procs := range []int{2, 3, 7} {
			if diff := sameBits(seq, solveHierCycles(t, p, procs)); diff != "" {
				t.Errorf("%s, %d procs vs 1: %s", p.Name, procs, diff)
			}
		}
	}
}

// A team wider than the machine still solves, to the same bits, when a
// single processor runs the whole crew.
func TestWideTeamOnOneProcessor(t *testing.T) {
	p := helixProblem(2)
	want := solutionDigest(solveHierCycles(t, p, 1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if got := solutionDigest(solveHierCycles(t, p, 6)); got != want {
		t.Fatalf("6 procs at GOMAXPROCS 1: digest %s, 1 proc: %s", got, want)
	}
}

func TestVariancesReflectDataQuality(t *testing.T) {
	// An atom with a tight anchor must end up with lower variance than a
	// distant unconstrained-but-for-distances atom.
	p := &molecule.Problem{Name: "var"}
	for i := 0; i < 4; i++ {
		p.Atoms = append(p.Atoms, molecule.Atom{Pos: geom.Vec3{float64(i) * 3, 0, 0}})
	}
	p.Constraints = constraint.Of(
		constraint.Position{I: 0, Target: geom.Vec3{0, 0, 0}, Sigma: 0.01}.Row(),
		constraint.Distance{I: 0, J: 1, Target: 3, Sigma: 0.1}.Row(),
		constraint.Distance{I: 1, J: 2, Target: 3, Sigma: 0.1}.Row(),
		constraint.Distance{I: 2, J: 3, Target: 3, Sigma: 2.0}.Row(), // sloppy data
	)
	e, err := New(p, Config{Mode: Flat, MaxCycles: 30})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := e.Solve(p.TruePositions())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Variances[0] >= sol.Variances[3] {
		t.Fatalf("anchored atom variance %g not below sloppy atom %g",
			sol.Variances[0], sol.Variances[3])
	}
}

func TestAutoDecompose(t *testing.T) {
	p := helixProblem(1)
	p.Tree = hier.GraphPartition(len(p.Atoms), &p.Constraints, 8)
	e, err := New(p, Config{Mode: Hierarchical, MaxCycles: 40, Tol: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if e.Root().IsLeaf() {
		t.Fatal("auto decomposition produced a single leaf")
	}
	sol, err := e.Solve(molecule.Perturbed(p, 0.3, 31))
	if err != nil {
		t.Fatal(err)
	}
	if sol.Residual > 5 {
		t.Fatalf("auto-decomposed solve residual %g", sol.Residual)
	}
}

func TestProblemWithoutTreeGetsAutoDecomposition(t *testing.T) {
	p := helixProblem(1)
	p = &molecule.Problem{Name: p.Name, Atoms: p.Atoms, Constraints: p.Constraints, Tree: nil}
	e, err := New(p, Config{Mode: Hierarchical})
	if err != nil {
		t.Fatal(err)
	}
	if e.Root() == nil {
		t.Fatal("no tree derived")
	}
}

func TestRecorderPluggedThrough(t *testing.T) {
	var rec trace.Collector
	p := helixProblem(1)
	e, err := New(p, Config{Mode: Hierarchical, MaxCycles: 2, Recorder: &rec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Solve(p.TruePositions()); err != nil {
		t.Fatal(err)
	}
	if rec.Flops()[trace.MatMat] <= 0 {
		t.Fatal("recorder not plugged through")
	}
}

func TestInitialEstimateUsable(t *testing.T) {
	p := helixProblem(1)
	e, err := New(p, Config{Mode: Hierarchical, MaxCycles: 60, Tol: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	init := conform.Search(len(p.Atoms), &p.Constraints, conform.Options{Seed: 11})
	if len(init) != len(p.Atoms) {
		t.Fatal("wrong init length")
	}
	sol, err := e.Solve(init)
	if err != nil {
		t.Fatal(err)
	}
	// From a lattice start the solve must still reach a consistent shape.
	if sol.Residual > 10 {
		t.Fatalf("residual from conformational start: %g", sol.Residual)
	}
}

// End-to-end on the protein workload: angles, torsions and H-bonds with
// trust-region damping must converge and produce sensible uncertainty
// structure (backbone better determined than sidechains).
func TestSolveProteinWithDamping(t *testing.T) {
	p := molecule.WithAnchors(molecule.Protein(24, 7), 4, 0.05)
	e, err := New(p, Config{
		Mode: Hierarchical, Tol: 5e-4, MaxCycles: 150, InitVar: 0.25, MaxStep: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := e.Solve(molecule.Perturbed(p, 0.5, 3))
	if err != nil {
		t.Fatal(err)
	}
	if sol.Residual > 0.5 {
		t.Fatalf("residual %g", sol.Residual)
	}
	if rmsd := molecule.RMSD(sol.Positions, p.TruePositions()); rmsd > 1.0 {
		t.Fatalf("RMSD %g", rmsd)
	}
	var bb, sc []float64
	for i, a := range p.Atoms {
		switch a.Name {
		case "N", "CA", "C", "O":
			bb = append(bb, sol.Variances[i])
		default:
			sc = append(sc, sol.Variances[i])
		}
	}
	if mean(bb) >= mean(sc) {
		t.Fatalf("backbone variance %g not below sidechain %g", mean(bb), mean(sc))
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// The trust region damps by measurement deweighting, which is a consistent
// Kalman update — so even an aggressively small radius must still converge
// (just more slowly), and must not corrupt the covariance bookkeeping.
func TestMaxStepDeweightingStaysConsistent(t *testing.T) {
	p := molecule.WithAnchors(molecule.Protein(24, 7), 4, 0.05)
	init := molecule.Perturbed(p, 0.5, 3)
	run := func(maxStep float64) *Solution {
		e, err := New(p, Config{Mode: Hierarchical, MaxCycles: 60, InitVar: 100, MaxStep: maxStep})
		if err != nil {
			t.Fatal(err)
		}
		sol, err := e.Solve(init)
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	// The reference leg runs at the default radius, not undamped: a truly
	// undamped Protein(24) solve from a 0.5 Å perturbation does not converge
	// (residual ≈ 255 hierarchical, ≈ 284 flat) — which is what the clamp is
	// for.
	ref := run(0)
	tight := run(0.05) // forces heavy deweighting on nearly every batch
	if ref.Residual > 0.05 {
		t.Fatalf("default-radius solve failed: residual %g", ref.Residual)
	}
	// A 0.05 Å radius makes progress in ~0.05 Å increments, so 60 cycles
	// cannot finish; it must still be clearly descending (the starting
	// residual is ~40) with no corruption.
	if tight.Residual > 1 {
		t.Fatalf("heavy deweighting broke consistency: residual %g", tight.Residual)
	}
	for i, v := range tight.Variances {
		if v < 0 {
			t.Fatalf("negative variance %g at atom %d under deweighting", v, i)
		}
	}
}

func TestSolutionCovarianceInterpretation(t *testing.T) {
	p := helixProblem(1)
	for _, mode := range []Mode{Flat, Hierarchical} {
		e, err := New(p, Config{Mode: mode, MaxCycles: 10})
		if err != nil {
			t.Fatal(err)
		}
		sol, err := e.Solve(p.TruePositions())
		if err != nil {
			t.Fatal(err)
		}
		ell, err := sol.Ellipsoid(0)
		if err != nil {
			t.Fatal(err)
		}
		// Ellipsoid σ² must be consistent with the scalar variance.
		sum := ell.Sigmas[0]*ell.Sigmas[0] + ell.Sigmas[1]*ell.Sigmas[1] + ell.Sigmas[2]*ell.Sigmas[2]
		if math.Abs(sum-sol.Variances[0]) > 1e-9*(1+sol.Variances[0]) {
			t.Fatalf("%v: ellipsoid trace %g vs variance %g", mode, sum, sol.Variances[0])
		}
		if _, err := sol.Ellipsoid(-1); err == nil {
			t.Fatal("bad atom accepted")
		}
		// Bonded neighbors end up correlated.
		if c := sol.Correlation(0, 1); c <= 0 {
			t.Fatalf("%v: correlation %g", mode, c)
		}
		rep := sol.UncertaintyReport(2)
		if rep == "" || !strings.Contains(rep, "best determined") {
			t.Fatalf("%v: report %q", mode, rep)
		}
	}
}
