package phmse_test

import (
	"fmt"

	"phmse"
)

// Estimate a small helix and report convergence.
func Example() {
	problem := phmse.WithAnchors(phmse.Helix(1), 4, 0.05)
	est, err := phmse.NewEstimator(problem, phmse.Config{Mode: phmse.Hierarchical, Tol: 1e-4})
	if err != nil {
		panic(err)
	}
	sol, err := est.Solve(phmse.Perturbed(problem, 0.3, 1))
	if err != nil {
		panic(err)
	}
	fmt.Println("converged:", sol.Converged)
	fmt.Println("atoms estimated:", len(sol.Positions))
	// Output:
	// converged: true
	// atoms estimated: 43
}

// Build a problem from scratch with the public constraint types.
func ExampleNewEstimator() {
	p := &phmse.Problem{Name: "triangle"}
	for _, pt := range []phmse.Vec3{{0, 0, 0}, {3, 0, 0}, {0, 4, 0}} {
		p.Atoms = append(p.Atoms, phmse.Atom{Pos: pt})
	}
	p.Constraints = phmse.ConstraintsOf(
		phmse.Position{I: 0, Target: phmse.Vec3{0, 0, 0}, Sigma: 0.01}.Row(),
		phmse.Distance{I: 0, J: 1, Target: 3, Sigma: 0.02}.Row(),
		phmse.Distance{I: 0, J: 2, Target: 4, Sigma: 0.02}.Row(),
		phmse.Distance{I: 1, J: 2, Target: 5, Sigma: 0.02}.Row())
	est, err := phmse.NewEstimator(p, phmse.Config{Mode: phmse.Flat, Tol: 1e-5, MaxCycles: 200})
	if err != nil {
		panic(err)
	}
	sol, err := est.Solve(phmse.Perturbed(p, 0.2, 4))
	if err != nil {
		panic(err)
	}
	fmt.Printf("residual below 0.1: %v\n", sol.Residual < 0.1)
	// Output:
	// residual below 0.1: true
}

// Model the paper's processor sweep on the DASH machine.
func ExampleSimulate() {
	est, err := phmse.NewEstimator(phmse.Helix(8), phmse.Config{Mode: phmse.Hierarchical})
	if err != nil {
		panic(err)
	}
	dash := phmse.DASH()
	one := phmse.Simulate(est, dash, 1, phmse.Static)
	eight := phmse.Simulate(est, dash, 8, phmse.Static)
	fmt.Printf("speedup at 8 processors is between 6 and 8: %v\n",
		one.Wall/eight.Wall > 6 && one.Wall/eight.Wall < 8)
	// Output:
	// speedup at 8 processors is between 6 and 8: true
}

// Derive a hierarchy automatically from the constraint graph.
func ExampleGraphPartition() {
	p := phmse.Helix(1)
	tree := phmse.GraphPartition(len(p.Atoms), &p.Constraints, 12)
	fmt.Println("atoms covered:", len(tree.Atoms()) == len(p.Atoms))
	fmt.Println("is a bisection:", len(tree.Children) == 2)
	// Output:
	// atoms covered: true
	// is a bisection: true
}
