package main

import (
	"fmt"
	"time"

	"phmse/internal/filter"
	"phmse/internal/molecule"
)

// combine quantifies the §4.1 analysis: parallelizing a node's computation
// across constraint-set partitions requires combining the independent
// results (Figure 3), and the combination costs about as much as applying a
// constraint vector of the node's dimension — so unless the data volume
// greatly exceeds the state size, the approach loses to parallelism within
// the update procedure.
func combine(cfg config) error {
	header("§4.1 — cost of combining independent constraint-partition updates")

	bp := 1
	if cfg.full {
		bp = 2
	}
	h := molecule.Helix(bp)
	init := h.TruePositions()
	n := 3 * len(h.Atoms)

	ident := func(a int) int { return a }
	batches, err := filter.MakeBatches(&h.Constraints, h.Constraints.AllRows(), ident, 16)
	if err != nil {
		return err
	}

	// Sequential application of the whole set.
	prior := filter.NewState(init, 100)
	seq := prior.Clone()
	u := &filter.Updater{}
	start := time.Now()
	if _, _, err := u.ApplyLower(seq, batches, u.JoinScan(filter.Bound{}, seq)); err != nil {
		return err
	}
	seqSec := time.Since(start).Seconds()

	fmt.Printf("\n%s: state dimension %d, %d scalar constraints\n", h.Name, n, h.ScalarDim())
	fmt.Printf("sequential application: %.3fs\n", seqSec)
	fmt.Println("\nparts | apply(s, max over parts) | combine(s) | combine/apply")
	for _, parts := range []int{2, 4} {
		// Split batches round-robin into disjoint subsets and update
		// independent copies of the prior.
		states := make([]*filter.State, parts)
		applySec := 0.0
		for pi := 0; pi < parts; pi++ {
			s := prior.Clone()
			start := time.Now()
			for bi := pi; bi < len(batches); bi += parts {
				if _, err := u.Apply(s, batches[bi]); err != nil {
					return err
				}
			}
			if sec := time.Since(start).Seconds(); sec > applySec {
				applySec = sec
			}
			states[pi] = s
		}
		start := time.Now()
		fused, err := filter.CombineAll(prior, states)
		if err != nil {
			return err
		}
		combineSec := time.Since(start).Seconds()
		_ = fused
		fmt.Printf("%5d | %21.3f | %10.3f | %11.2f\n",
			parts, applySec, combineSec, combineSec/applySec)
	}
	fmt.Println("\nThe combination overhead is why the paper parallelizes inside the")
	fmt.Println("update procedure instead of across constraint partitions.")
	return nil
}
