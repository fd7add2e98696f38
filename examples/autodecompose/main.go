// Autodecompose: the paper's §5 extension — derive the structure hierarchy
// automatically from a flat problem specification by partitioning the
// constraint graph, and compare it against blind recursive bisection and
// against the graph partition's leaves regrouped bottom-up by the work
// model, each with the model's prediction beside the measured cycle time.
package main

import (
	"fmt"
	"log"
	"time"

	"phmse"
)

func main() {
	// A flat problem with no user-supplied hierarchy: a protein-like chain
	// of residues whose atom numbering deliberately interleaves two
	// domains, so index-based bisection cuts through everything.
	problem := buildInterleavedChain(120)
	fmt.Printf("%s (no hierarchy given)\n", problem)

	naive := phmse.RecursiveBisection(len(problem.Atoms), 12)
	smart := phmse.GraphPartition(len(problem.Atoms), &problem.Constraints, 12)
	fmt.Printf("recursive bisection: depth %d, %d leaves\n", naive.Depth(), len(naive.Leaves()))
	fmt.Printf("graph partitioning:  depth %d, %d leaves\n", smart.Depth(), len(smart.Leaves()))

	// The third tree keeps the graph partition's leaves and lets the
	// estimator decide what goes above them: handed a flat root, it merges
	// the leaves pairwise while the work model says a merge pays.
	flat := &phmse.Group{Name: "leaves", Children: smart.Leaves()}

	// Solve with each decomposition. The model's work (relative units) is
	// the prediction; seconds per cycle is what it predicts.
	fmt.Printf("%-10s  %5s  %14s  %10s  %10s  %6s  %8s\n", "tree", "depth", "scalars@root", "model work", "ms/cycle", "cycles", "residual")
	for _, tc := range []struct {
		name string
		tree *phmse.Group
	}{{"bisection", naive}, {"graph", smart}, {"regrouped", flat}} {
		p := &phmse.Problem{
			Name:        problem.Name,
			Atoms:       problem.Atoms,
			Constraints: problem.Constraints,
			Tree:        tc.tree,
		}
		est, err := phmse.NewEstimator(p, phmse.Config{Mode: phmse.Hierarchical, Tol: 1e-4})
		if err != nil {
			log.Fatal(err)
		}
		t0 := time.Now()
		sol, err := est.Solve(phmse.Perturbed(p, 0.3, 5))
		if err != nil {
			log.Fatal(err)
		}
		perCycle := time.Since(t0).Seconds() / float64(sol.Cycles)
		atRoot := est.Root().Scalars()
		fmt.Printf("%-10s  %5d  %6d of %4d  %10.3g  %10.2f  %6d  %8.3f\n",
			tc.name, est.Root().MaxDepth(), atRoot, p.ScalarDim(), phmse.ModelWork(est), 1e3*perCycle, sol.Cycles, sol.Residual)
	}
}

// buildInterleavedChain makes a single folded chain whose atom numbering
// has been scrambled by a fixed pseudo-random permutation — the situation
// where blind index bisection destroys locality but the constraint graph
// still encodes it.
func buildInterleavedChain(n int) *phmse.Problem {
	// idOf[c] is the atom index assigned to chain position c.
	idOf := make([]int, n)
	for c := range idOf {
		idOf[c] = c
	}
	rng := uint64(0x9e3779b97f4a7c15)
	for c := n - 1; c > 0; c-- {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		j := int(rng % uint64(c+1))
		idOf[c], idOf[j] = idOf[j], idOf[c]
	}

	p := &phmse.Problem{Name: fmt.Sprintf("scrambled-chain-%d", n)}
	p.Atoms = make([]phmse.Atom, n)
	pos := make([]phmse.Vec3, n) // indexed by atom id
	for c := 0; c < n; c++ {
		id := idOf[c]
		pos[id] = phmse.Vec3{float64(c) * 2.5, 7 * float64(c%4), 0.4 * float64(c%5)}
		p.Atoms[id] = phmse.Atom{Residue: c, Pos: pos[id]}
	}
	dist := func(i, j int) float64 { return pos[i].Sub(pos[j]).Norm() }
	for c := 0; c+1 < n; c++ {
		i, j := idOf[c], idOf[c+1]
		p.Constraints.Add(phmse.Distance{I: i, J: j, Target: dist(i, j), Sigma: 0.05}.Row())
		if c+2 < n {
			k := idOf[c+2]
			p.Constraints.Add(phmse.Distance{I: i, J: k, Target: dist(i, k), Sigma: 0.1}.Row())
		}
	}
	for _, a := range []int{idOf[0], idOf[1], idOf[n-1]} {
		p.Constraints.Add(phmse.Position{I: a, Target: pos[a], Sigma: 0.02}.Row())
	}
	return p
}
