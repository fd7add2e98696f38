// Machines: reproduce the paper's processor-sweep methodology on the
// calibrated virtual-time models of the Stanford DASH and SGI Challenge —
// including the helix's power-of-two speedup dips and the ribosome's
// smooth curve.
package main

import (
	"fmt"
	"log"

	"phmse"
)

func main() {
	helix := phmse.Helix(16)
	ribo := phmse.Ribo30S(1996)

	for _, mach := range []*phmse.Machine{phmse.DASH(), phmse.Challenge()} {
		fmt.Printf("\n=== %s (%d processors) ===\n", mach.Name, mach.MaxProcs)
		for _, p := range []*phmse.Problem{helix, ribo} {
			est, err := phmse.NewEstimator(p, phmse.Config{Mode: phmse.Hierarchical})
			if err != nil {
				log.Fatal(err)
			}
			base := phmse.Simulate(est, mach, 1, phmse.Static).Wall
			fmt.Printf("%-12s one cycle on 1 proc: %7.1f model-seconds\n", p.Name, base)
			fmt.Printf("  NP:      ")
			nps := []int{2, 4, 6, 8, 12, 16, 24, 32}
			for _, np := range nps {
				if np <= mach.MaxProcs {
					fmt.Printf("%6d", np)
				}
			}
			fmt.Printf("\n  speedup: ")
			for _, np := range nps {
				if np <= mach.MaxProcs {
					r := phmse.Simulate(est, mach, np, phmse.Static)
					fmt.Printf("%6.2f", base/r.Wall)
				}
			}
			fmt.Println()
		}
	}
	fmt.Println("\nNote the helix dips at NP=6 and 12 (binary tree, uneven processor")
	fmt.Println("splits) that the high-branching ribosome decomposition avoids.")
}
