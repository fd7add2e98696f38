package phmse_test

import (
	"math"
	"strings"
	"testing"

	"phmse"
)

// The public-API walkthrough from the package documentation.
func TestQuickstartFlow(t *testing.T) {
	p := phmse.WithAnchors(phmse.Helix(1), 4, 0.05)
	est, err := phmse.NewEstimator(p, phmse.Config{Mode: phmse.Hierarchical, Procs: 2, MaxCycles: 80, Tol: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := est.Solve(phmse.Perturbed(p, 0.4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Converged {
		t.Fatalf("not converged: %+v", sol)
	}
	if rmsd := phmse.RMSD(sol.Positions, p.TruePositions()); rmsd > 0.3 {
		t.Fatalf("RMSD %g", rmsd)
	}
	if len(sol.Variances) != len(p.Atoms) {
		t.Fatal("variances length")
	}
}

func TestCustomProblemViaPublicTypes(t *testing.T) {
	p := &phmse.Problem{Name: "square"}
	pts := []phmse.Vec3{{0, 0, 0}, {4, 0, 0}, {4, 4, 0}, {0, 4, 0}}
	for _, pt := range pts {
		p.Atoms = append(p.Atoms, phmse.Atom{Pos: pt})
	}
	diag := math.Sqrt(32)
	p.Constraints = phmse.ConstraintsOf(
		phmse.Position{I: 0, Target: pts[0], Sigma: 0.01}.Row(),
		phmse.Position{I: 1, Target: pts[1], Sigma: 0.01}.Row(),
		phmse.Distance{I: 1, J: 2, Target: 4, Sigma: 0.05}.Row(),
		phmse.Distance{I: 2, J: 3, Target: 4, Sigma: 0.05}.Row(),
		phmse.Distance{I: 3, J: 0, Target: 4, Sigma: 0.05}.Row(),
		phmse.Distance{I: 0, J: 2, Target: diag, Sigma: 0.05}.Row(),
		phmse.Distance{I: 1, J: 3, Target: diag, Sigma: 0.05}.Row())
	est, err := phmse.NewEstimator(p, phmse.Config{Mode: phmse.Flat, MaxCycles: 150, Tol: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := est.Solve(phmse.Perturbed(p, 0.5, 9))
	if err != nil {
		t.Fatal(err)
	}
	if sol.Residual > 1 {
		t.Fatalf("residual %g", sol.Residual)
	}
}

func TestSimulatePublicAPI(t *testing.T) {
	p := phmse.Helix(4)
	est, err := phmse.NewEstimator(p, phmse.Config{Mode: phmse.Hierarchical})
	if err != nil {
		t.Fatal(err)
	}
	dash := phmse.DASH()
	serial := phmse.Simulate(est, dash, 1, phmse.Static)
	eight := phmse.Simulate(est, dash, 8, phmse.Static)
	if eight.Wall >= serial.Wall {
		t.Fatal("no virtual speedup")
	}
	if s := serial.Wall / eight.Wall; s < 4 || s > 8 {
		t.Fatalf("NP=8 speedup %g", s)
	}
	// The flat organization is the estimator whose tree is one leaf.
	flatEst, err := phmse.NewEstimator(p, phmse.Config{Mode: phmse.Flat})
	if err != nil {
		t.Fatal(err)
	}
	if flat := phmse.Simulate(flatEst, dash, 1, phmse.Static); flat.Wall <= serial.Wall {
		t.Fatal("flat organization should be slower than hierarchical")
	}
	if phmse.ModelWork(flatEst) <= phmse.ModelWork(est) {
		t.Fatal("flat model work not above hierarchical")
	}
}

func TestDecompositionHelpers(t *testing.T) {
	p := phmse.Helix(1)
	g := phmse.GraphPartition(len(p.Atoms), &p.Constraints, 10)
	if len(g.Atoms()) != len(p.Atoms) {
		t.Fatal("GraphPartition lost atoms")
	}
	r := phmse.RecursiveBisection(16, 4)
	if len(r.Leaves()) != 4 {
		t.Fatal("RecursiveBisection leaves")
	}
}

// TestWorkModelPublicAPI checks the public wiring of the Table 2 experiment
// and the Equation 1 fit. The fit runs on cells synthesised from a known
// model: microsecond timings of small nodes at a quarter scale cannot
// resolve the n² term, so fitting real measurements here would test the
// host's timer, not the wiring. MeasureTable2 is checked on its own.
func TestWorkModelPublicAPI(t *testing.T) {
	cells := phmse.MeasureTable2([]int{16, 43}, []int{4, 16}, 0.25)
	if len(cells) != 4 {
		t.Fatal("cells")
	}
	for _, c := range cells {
		if c.PerScalar <= 0 {
			t.Fatalf("non-positive measurement: %+v", c)
		}
	}

	truth := phmse.WorkModel{N2: 2e-8, NM: 3e-7, N: 1e-6, M: 2e-6, Const: 1e-5}
	var synth []phmse.Table2Cell
	for _, atoms := range []int{16, 43, 86} {
		for _, m := range []int{4, 16, 32} {
			synth = append(synth, phmse.Table2Cell{NodeAtoms: atoms, BatchDim: m, PerScalar: truth.PerScalar(3*atoms, m)})
		}
	}
	model, err := phmse.FitEquation1(synth, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := model.PerScalar(300, 16), truth.PerScalar(300, 16); math.Abs(got-want) > 0.01*want {
		t.Fatalf("fitted model predicts %g per scalar at n=300, m=16; the model it was fitted to, %g", got, want)
	}
}

func TestConformSearchPublicAPI(t *testing.T) {
	p := phmse.Helix(1)
	init := phmse.ConformSearch(len(p.Atoms), &p.Constraints, 3)
	if len(init) != len(p.Atoms) {
		t.Fatal("length")
	}
}

func TestRibo30SPublicAPI(t *testing.T) {
	r := phmse.Ribo30SWith(phmse.Ribo30SConfig{Helices: 3, Coils: 3, Proteins: 2, Seed: 5})
	est, err := phmse.NewEstimator(r, phmse.Config{Mode: phmse.Hierarchical, MaxCycles: 30, Tol: 1e-2})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := est.Solve(phmse.Perturbed(r, 1.0, 2))
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cycles == 0 {
		t.Fatal("no cycles")
	}
}

func TestBaselinesPublicAPI(t *testing.T) {
	p := phmse.WithAnchors(phmse.Helix(1), 3, 0.05)
	truth := p.TruePositions()

	dg, err := phmse.DistanceGeometry(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(dg) != len(p.Atoms) {
		t.Fatal("DG length")
	}
	r, err := phmse.SuperposedRMSD(dg, truth)
	if err != nil {
		t.Fatal(err)
	}
	if r > 15 {
		t.Fatalf("DG embedding unreasonably bad: %g", r)
	}

	pos := phmse.Perturbed(p, 0.4, 6)
	before := phmse.ConstraintEnergy(p, pos)
	res := phmse.EnergyMinimize(p, pos, 300)
	if res.Energy >= before {
		t.Fatalf("energy minimization did not improve: %g → %g", before, res.Energy)
	}
}

func TestWritePDBPublicAPI(t *testing.T) {
	p := phmse.WithAnchors(phmse.Helix(1), 3, 0.05)
	est, err := phmse.NewEstimator(p, phmse.Config{MaxCycles: 3})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := est.Solve(p.TruePositions())
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := phmse.WritePDB(&buf, p, sol); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "ATOM") || strings.Count(out, "\n") < len(p.Atoms) {
		t.Fatal("PDB output malformed")
	}
}

func TestGroupBottomUpPublicAPI(t *testing.T) {
	p := phmse.Helix(2)
	leaves := p.Tree.Leaves()
	tree := phmse.GroupBottomUp(leaves, &p.Constraints)
	if len(tree.Atoms()) != len(p.Atoms) {
		t.Fatal("bottom-up grouping lost atoms")
	}
	q := &phmse.Problem{Name: "bu", Atoms: p.Atoms, Constraints: p.Constraints, Tree: tree}
	if _, err := phmse.NewEstimator(q, phmse.Config{Mode: phmse.Hierarchical}); err != nil {
		t.Fatal(err)
	}
}

func TestExclusionsPublicAPI(t *testing.T) {
	p := phmse.Helix(1)
	aug := phmse.WithExclusions(p, 2.0, 0.5, 25)
	if aug.Constraints.Len() <= p.Constraints.Len() {
		t.Fatal("no exclusions added")
	}
	pos := []phmse.Vec3{{0, 0, 0}, {0.1, 0, 0}}
	if phmse.Clashes(pos, 1.0) != 1 {
		t.Fatal("Clashes")
	}
}

func TestSimulateDynamicPublicAPI(t *testing.T) {
	p := phmse.Helix(8)
	est, err := phmse.NewEstimator(p, phmse.Config{Mode: phmse.Hierarchical})
	if err != nil {
		t.Fatal(err)
	}
	dash := phmse.DASH()
	static6 := phmse.Simulate(est, dash, 6, phmse.Static)
	dyn6 := phmse.Simulate(est, dash, 6, phmse.Dynamic)
	if dyn6.Wall >= static6.Wall {
		t.Fatalf("dynamic %g not below static %g at NP=6", dyn6.Wall, static6.Wall)
	}
}
