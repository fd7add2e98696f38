package main

import (
	"fmt"
	"strings"

	"phmse/internal/hier"
	"phmse/internal/molecule"
)

// trees renders the hierarchical decompositions of the two evaluation
// problems (the paper's Figure 2 and Figure 4) as indented outlines, with
// per-node atom and constraint counts.
func trees(cfg config) error {
	header("Figure 2 — hierarchical decomposition of the RNA double helix")
	h := molecule.Helix(4)
	hroot, err := hier.Build(h.Tree, &h.Constraints)
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Print(hroot.Dump())
	fmt.Printf("(%d nodes, depth %d; 16 bp used in the experiments — 4 bp shown for legibility)\n",
		hroot.Count(), hroot.MaxDepth())

	header("Figure 4 — hierarchical decomposition of ribo30S")
	r := molecule.Ribo30S(cfg.seed)
	rroot, err := hier.Build(r.Tree, &r.Constraints)
	if err != nil {
		return err
	}
	fmt.Println()
	// The full tree has ~275 nodes; show the top two levels.
	lines := strings.Split(rroot.Dump(), "\n")
	shown := 0
	for _, line := range lines {
		indent := len(line) - len(strings.TrimLeft(line, " "))
		if indent <= 2 && line != "" {
			fmt.Println(line)
			shown++
		}
	}
	fmt.Printf("(... segment and strand nodes elided: %d nodes total, depth %d, root branching %d)\n",
		rroot.Count(), rroot.MaxDepth(), len(rroot.Children))
	return nil
}
