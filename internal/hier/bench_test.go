package hier

import (
	"fmt"
	"testing"
	"time"

	"phmse/internal/filter"
	"phmse/internal/geom"
	"phmse/internal/molecule"
	"phmse/internal/par"
	"phmse/internal/trace"
)

// BenchmarkBatchByNodeSize times a batch at the node sizes a serving job is
// made of: the own batches of the cold helix-1bp nodes of dimension 27, 36,
// 66 and 129 and of the helix-2bp root (258), in the first cycle of a cold
// solve from the bench ladder's start (perturbation 0.4, seed 17), on a
// team of one with a recorder, as a `-max-procs 1` phmsed shard runs them.
// The node's prior — its children's posteriors, its cross blocks cleared,
// its direct atoms set — is restored before each pass and not timed; the
// reported us/batch is the node's ApplyLower over its own batches.
func BenchmarkBatchByNodeSize(b *testing.B) {
	for _, bp := range []int{1, 2} {
		h := molecule.Helix(bp)
		root, err := Build(h.Tree, &h.Constraints)
		if err != nil {
			b.Fatal(err)
		}
		if err := root.Prepare(filter.DefaultBatchSize); err != nil {
			b.Fatal(err)
		}
		positions := molecule.Perturbed(h, 0.4, 17)
		seen := map[int]bool{}
		root.Walk(func(n *Node) {
			dim := n.StateDim()
			switch {
			case seen[dim] || len(n.batches) == 0:
				return
			case bp == 1 && dim != 27 && dim != 36 && dim != 66 && dim != 129:
				return
			case bp == 2 && dim != 258:
				return
			}
			seen[dim] = true
			b.Run(fmt.Sprintf("%s/n=%d", h.Name, dim), func(b *testing.B) {
				benchNodeBatches(b, n, positions)
			})
		})
	}
}

// benchNodeBatches times node n's own pass from its cold prior.
func benchNodeBatches(b *testing.B, n *Node, positions []geom.Vec3) {
	opt := Options{Control: filter.Control{Team: par.NewTeam(1), Rec: new(trace.Collector)}.WithDefaults()}
	prior := filter.NewState(make([]geom.Vec3, len(n.Atoms)), 0)
	var bound filter.Bound
	for _, c := range n.Children {
		cb, err := updateNode(c, prior.Block(3*(c.lo-n.lo), c.StateDim()), positions, opt, opt.Team, 1)
		if err != nil {
			b.Fatal(err)
		}
		bound = bound.Join(cb)
	}
	n.clearOwn(prior.C, opt.Team)
	s := filter.NewState(make([]geom.Vec3, len(n.Atoms)), 0)
	var spent time.Duration
	for i := 0; i < b.N; i++ {
		copy(s.X, prior.X)
		copy(s.C.Data, prior.C.Data)
		u := opt.Updater(opt.Team, n.Name, 1)
		nb := n.setDirect(s, positions, opt, u, bound)
		start := time.Now()
		_, _, err := u.ApplyLower(s, n.batches, nb)
		spent += time.Since(start)
		u.ReleaseWorkspace()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(spent.Seconds()*1e6/float64(b.N*len(n.batches)), "us/batch")
	b.ReportMetric(float64(len(n.batches)), "batches")
}
