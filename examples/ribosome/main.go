// Ribosome: solve a scaled-down synthetic 30S ribosomal subunit the way
// the paper does. The experiment demonstrates why the paper runs a
// discrete conformational-space search before the analytical estimator:
// from a random start the estimator lands in a distant local optimum, while
// from a topologically correct low-resolution model it converges — and then
// the covariance output shows which parts of the assembly the data pins
// down.
package main

import (
	"fmt"
	"log"
	"math"

	"phmse"
)

func main() {
	// A quarter-scale ribosome so the example runs in seconds; drop the
	// sizing overrides for the full ~900-atom problem.
	problem := phmse.Ribo30SWith(phmse.Ribo30SConfig{
		Helices:  16,
		Coils:    16,
		Proteins: 8,
		Seed:     1996,
	})
	fmt.Println(problem)

	// The generator's tree fans its root straight out into the domains; the
	// estimator solves it regrouped, domains merged pairwise while the work
	// model says that moves contact data onto a smaller block.
	est, err := phmse.NewEstimator(problem, phmse.Config{
		Mode:      phmse.Hierarchical,
		Procs:     4,
		Tol:       5e-3,
		MaxCycles: 60,
	})
	if err != nil {
		log.Fatal(err)
	}
	atRoot := 0
	for _, c := range est.Root().Cons {
		atRoot += c.Dim()
	}
	fmt.Printf("tree solved: the given one (depth %d, %d nodes) regrouped by the work model to depth %d, %d nodes, %d of %d scalars left at the root\n",
		problem.Tree.Depth(), problem.Tree.Count(), est.Root().MaxDepth(), est.Root().Count(), atRoot, problem.ScalarDim())

	// Run 1: cold start from the lattice conformational search. The search
	// satisfies local geometry but rarely recovers the global fold, so the
	// refinement stalls in a locally optimal arrangement — the failure mode
	// the paper's preprocessing exists to mitigate.
	cold := phmse.ConformSearch(len(problem.Atoms), problem.Constraints, 3)
	coldSol := refine(est, cold)
	fmt.Printf("\ncold start (lattice search, %.1f Å RMSD):\n", rmsd(problem, cold))
	report(problem, coldSol)

	// Run 2: from a low-resolution model with the right topology (a 2.5 Å
	// perturbation of the reference stands in for the discrete search of
	// the paper's reference [3], which used problem-specific move sets).
	warm := phmse.Perturbed(problem, 2.5, 11)
	warmSol := refine(est, warm)
	fmt.Printf("\nwarm start (low-resolution model, %.1f Å RMSD):\n", rmsd(problem, warm))
	report(problem, warmSol)

	// The uncertainty output is the point of the probabilistic method:
	// protein atoms carry direct position data and end up far more tightly
	// determined than rRNA atoms inferred through chains of distances.
	var protVar, rnaVar []float64
	for i, a := range problem.Atoms {
		if a.Residue < 0 { // proteins are tagged with negative residues
			protVar = append(protVar, warmSol.Variances[i])
		} else {
			rnaVar = append(rnaVar, warmSol.Variances[i])
		}
	}
	fmt.Printf("\nmean positional σ: proteins %.2f Å (%d atoms), rRNA %.2f Å (%d atoms)\n",
		math.Sqrt(mean(protVar)), len(protVar), math.Sqrt(mean(rnaVar)), len(rnaVar))
	fmt.Println("note: the warm-start deviation from the reference is comparable to the")
	fmt.Println("estimate's own reported σ — the covariance honestly brackets the answer,")
	fmt.Println("which is what the probabilistic formulation buys over pure optimization.")
}

func refine(est *phmse.Estimator, init []phmse.Vec3) *phmse.Solution {
	sol, err := est.Solve(init)
	if err != nil {
		log.Fatal(err)
	}
	return sol
}

func report(p *phmse.Problem, sol *phmse.Solution) {
	fmt.Printf("  %d cycles (converged=%v), residual %.3f, final RMSD %.2f Å\n",
		sol.Cycles, sol.Converged, sol.Residual, phmse.RMSD(sol.Positions, p.TruePositions()))
}

func rmsd(p *phmse.Problem, pos []phmse.Vec3) float64 {
	return phmse.RMSD(pos, p.TruePositions())
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
