package main

import (
	"fmt"

	"phmse/internal/filter"
	"phmse/internal/hier"
	"phmse/internal/molecule"
	"phmse/internal/workest"
)

// treestats quantifies the §3.1 analysis on the real decompositions: the
// hierarchical speedup depends on how much of the constraint set can be
// pushed toward the leaves. The paper bounds the per-constraint cost
// between O(n) (constraints concentrated at the leaves) and O(n·d)
// (every level carrying as much as the one below); this experiment shows
// where each workload falls, on the tree as the generator gives it (the
// paper's, which Tables 3–6 keep) and on the tree the estimator solves:
// that one regrouped by the work model (hier.Regroup).
func treestats(cfg config) error {
	header("§3.1 — constraint and work distribution over the hierarchy")

	problems := []*molecule.Problem{
		molecule.Helix(8),
		molecule.Ribo30S(cfg.seed),
		molecule.Protein(48, cfg.seed),
	}
	for _, p := range problems {
		root, err := hier.Build(p.Tree, p.Constraints)
		if err != nil {
			return err
		}
		given := hier.ComputeStats(root)
		fmt.Printf("\n%s:\n%s", p.Name, given.Format())
		if !root.Regroup(workest.FlopModel{}, filter.DefaultBatchSize) {
			fmt.Println("regrouping: no node wider than two, the tree is solved as given")
			continue
		}
		st := hier.ComputeStats(root)
		fmt.Printf("regrouped by the work model:\n%s", st.Format())
		fmt.Printf("given → regrouped: %d → %d scalars at the root, estimated work in the top two levels %.3g → %.3g flops per cycle (of %.3g → %.3g), depth %d → %d\n",
			given.Levels[0].Scalars, st.Levels[0].Scalars, given.WorkTopTwo*given.Work, st.WorkTopTwo*st.Work, given.Work, st.Work, given.Depth, st.Depth)
	}
	fmt.Println("\nThe helix is the paper's optimistic scenario: nearly all constraints")
	fmt.Println("sit in the bottom half of its tree. The ribosome and protein keep their")
	fmt.Println("long-range contact data at the top levels, and in every workload the")
	fmt.Println("O(n²)-per-constraint factor concentrates the estimated *work* at the")
	fmt.Println("top two levels — which is exactly why the paper needs intra-node matrix")
	fmt.Println("parallelism in addition to the inter-node subtree axis. Regrouping takes")
	fmt.Println("the wide nodes apart: the contact data that joined two domains moves to a")
	fmt.Println("block holding just those two, and the work of the top two levels falls with")
	fmt.Println("it. A wide node whose data already sits in its subtrees (the protein's")
	fmt.Println("residues under a helix) gains depth and nothing else.")
	return nil
}
