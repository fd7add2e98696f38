package main

import (
	"fmt"

	"phmse/internal/hier"
	"phmse/internal/machine"
	"phmse/internal/molecule"
	"phmse/internal/vm"
)

// timeline renders the virtual-time execution of the helix at NP=6 and
// NP=8 on the DASH model, making the source of the non-power-of-two dip
// visible: with six processors the two equal sub-helices get 3 processors
// each, but each 3-processor group must again split 2/1 one level down, so
// the slower one-processor branch stalls its sibling at every join.
func timeline(cfg config) error {
	header("Execution timeline — the anatomy of the power-of-two dip")

	h := molecule.Helix(8)
	root, err := hier.Build(h.Tree, &h.Constraints)
	if err != nil {
		return err
	}
	if err := root.Prepare(16); err != nil {
		return err
	}
	mach := machine.DASH()
	serial := vm.Run(root, mach, 1, vm.Static).Wall
	for _, np := range []int{6, 8} {
		res := vm.Run(root, mach, np, vm.Static)
		fmt.Printf("\n%s, NP=%d (speedup %.2f):\n", h.Name, np, serial/res.Wall)
		fmt.Print(vm.FormatTimeline(root, res.Spans, res.Wall, 2))
	}
	fmt.Println("\nAt NP=6 the depth-2 joins wait for their one-processor branches;")
	fmt.Println("at NP=8 every split is even and the joins meet without idling.")
	return nil
}
