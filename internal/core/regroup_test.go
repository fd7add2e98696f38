package core

import (
	"math"
	"testing"
	"time"

	"phmse/internal/filter"
	"phmse/internal/hier"
	"phmse/internal/molecule"
	"phmse/internal/par"
	"phmse/internal/sched"
	"phmse/internal/workest"
)

func rootScalars(n *hier.Node) int {
	s := 0
	for _, c := range n.Cons {
		s += c.Dim()
	}
	return s
}

// The artifacts of a construction carry the regrouped tree: an estimator
// built from them has the same tree without regrouping anything — the
// grouping it is handed is already binary where it was wide — and solves
// to the same bits.
func TestPlanArtifactsCarryTheRegroupedTree(t *testing.T) {
	p := molecule.Ribo30SWith(molecule.Ribo30SConfig{Helices: 8, Coils: 8, Proteins: 4, Seed: 5})
	cfg := Config{Mode: Hierarchical, Procs: 2, MaxCycles: 3}
	fresh, art, err := NewWithPlan(p, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	given, err := hier.Build(p.Tree, p.Constraints)
	if err != nil {
		t.Fatal(err)
	}
	if got, was := rootScalars(fresh.Root()), rootScalars(given); got >= was {
		t.Fatalf("the root holds %d scalars, %d on the given tree: nothing was regrouped", got, was)
	}
	if art.Tree == p.Tree || art.Tree.Depth() != fresh.Root().MaxDepth() {
		t.Fatalf("artifact tree depth %d, estimator tree depth %d", art.Tree.Depth(), fresh.Root().MaxDepth())
	}
	cached, again, err := NewWithPlan(p, cfg, art)
	if err != nil {
		t.Fatal(err)
	}
	if again != art {
		t.Fatal("fitting artifacts were not reused")
	}
	if cached.Root().Dump() != fresh.Root().Dump() {
		t.Fatalf("cached tree:\n%s\nfresh tree:\n%s", cached.Root().Dump(), fresh.Root().Dump())
	}
	init := molecule.Perturbed(p, 0.3, 9)
	a, err := fresh.Solve(init)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cached.Solve(init)
	if err != nil {
		t.Fatal(err)
	}
	if solutionDigest(a) != solutionDigest(b) {
		t.Fatal("the cached plan solved to different bits than the fresh one")
	}
}

// Regrouping changes the order constraints are applied in, not the
// mathematics: on the paper-scale ribosome, solved to tolerance, the
// regrouped tree takes the given tree's cycles (±1) to the same structure
// (≤ 0.02 Å anywhere) with the same uncertainty (every coordinate's
// variance within 2 %).
func TestRegroupedRibo30SMatchesGivenTree(t *testing.T) {
	if testing.Short() {
		t.Skip("two paper-scale solves to tolerance")
	}
	p := molecule.Ribo30S(1996)
	init := molecule.Perturbed(p, 0.4, 7)

	root, err := hier.Build(p.Tree, p.Constraints)
	if err != nil {
		t.Fatal(err)
	}
	if err := root.Prepare(filter.DefaultBatchSize); err != nil {
		t.Fatal(err)
	}
	plan := sched.Assign(root, 2, sched.EstimateWork(root, workest.FlopModel{}, filter.DefaultBatchSize))
	t0 := time.Now()
	given, gres, err := hier.Solve(root, init, hier.Options{Control: filter.Control{Team: par.NewTeam(2)}, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}

	givenWall := time.Since(t0)

	est, err := New(p, Config{Mode: Hierarchical, Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := rootScalars(est.Root()); got > 400 {
		t.Fatalf("the regrouped root still holds %d scalars (the given one %d), want ≤ 400", got, rootScalars(root))
	}
	t0 = time.Now()
	sol, err := est.Solve(init)
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(t0)
	if !gres.Converged || !sol.Converged || sol.Cycles < gres.Cycles-1 || sol.Cycles > gres.Cycles+1 {
		t.Fatalf("given tree: %d cycles (converged %v), regrouped: %d (%v)", gres.Cycles, gres.Converged, sol.Cycles, sol.Converged)
	}
	vars := sol.Posterior().CoordVariances
	maxDx, maxRel := 0.0, 0.0
	for i, a := range root.Atoms {
		for c := 0; c < 3; c++ {
			maxDx = math.Max(maxDx, math.Abs(sol.Positions[a][c]-given.X[3*i+c]))
			v := given.C.At(3*i+c, 3*i+c)
			maxRel = math.Max(maxRel, math.Abs(vars[3*a+c]-v)/v)
		}
	}
	t.Logf("given tree %d cycles in %.1f s, regrouped %d in %.1f s; max |Δx| %.4f Å, max variance difference %.2f %%",
		gres.Cycles, givenWall.Seconds(), sol.Cycles, wall.Seconds(), maxDx, 100*maxRel)
	if maxDx > 0.02 || maxRel > 0.02 {
		t.Fatalf("max |Δx| %.4f Å (want ≤ 0.02), max variance difference %.2f %% (want ≤ 2)", maxDx, 100*maxRel)
	}
}
