// Package vm is the virtual-time execution engine that reproduces the
// paper's parallel measurements (Tables 3–6) without the 1996 hardware. It
// executes the *actual* schedule of the parallel hierarchical algorithm —
// the same tree, the same constraint batches, the same static processor
// assignment, the same post-order dependences and group barriers — but
// advances deterministic virtual clocks using the calibrated machine cost
// models instead of running the numerical kernels.
//
// Because every operation's cost depends only on its dimensions (state
// size, batch size, Jacobian non-zeros), the virtual timing is exact for
// the schedule regardless of whether the kernels run, which is what makes
// full-size processor sweeps cheap. The numerical behaviour itself is
// exercised by the real solver (package hier) in the tests and examples.
package vm

import (
	"sort"

	"phmse/internal/hier"
	"phmse/internal/machine"
	"phmse/internal/trace"
)

// Policy selects how a run assigns processors to the tree's subtrees.
type Policy int

const (
	// Static is the paper's §4.3 static processor assignment, the schedule
	// of its Tables 3–6: all processors start at the root, and at every
	// node they are divided over the child subtrees by recursive
	// best-match bipartition of the subtrees' work (hier.Node.Work).
	// Groups of one parent run concurrently, each processing its subtrees
	// one after another, and the parent waits for the slowest group. At one
	// processor the run is the sequential tree walk.
	Static Policy = iota
	// Dynamic models the paper's §5 further-work proposal: dynamic
	// reassignment of processors to nodes by periodic global
	// synchronization. The sibling subtrees of a node are treated as a
	// malleable task pool balanced across the whole team, so the completion
	// time of the children follows the greedy-scheduling (Graham) bound
	//
	//	T(children) = max( Σᵢ T₁(childᵢ) / p , maxᵢ T_cp(childᵢ, p) )
	//
	// where T₁ is a subtree's serial work and T_cp its completion time when
	// it can use the full team alone. A per-level regrouping
	// synchronization is charged on top. This removes the static scheme's
	// power-of-two dips at the cost of the data-locality control the paper
	// prefers.
	Dynamic
)

// Result summarizes one virtual-time run.
type Result struct {
	// Wall is the modeled wall-clock seconds of one complete cycle over all
	// constraints (input, output and initialization excluded, as in the
	// paper).
	Wall float64
	// ClassBusy is the per-class busy processor-seconds (wall × team size
	// summed over operations).
	ClassBusy trace.Times
	// Procs is the processor count the run was scheduled for.
	Procs int
	// Ops is the number of array operations executed.
	Ops int
	// Spans records when each node's own constraint processing ran, in
	// order of start time: the load-imbalance structure behind the speedup
	// curves (e.g. the idle gap when three processors split 2/1 over two
	// equal subtrees). Static runs only; nil under Dynamic.
	Spans []Span
}

// ClassSeconds returns the per-class busy time divided by the processor
// count — the per-class columns of the paper's Tables 3–6.
func (r Result) ClassSeconds() trace.Times {
	return r.ClassBusy.Scale(1 / float64(r.Procs))
}

// Run models one complete cycle of the parallel hierarchical computation
// over the tree on the machine with the given processor count under the
// policy. The tree must be prepared (hier.Node.Prepare); the flat
// organization is the tree of one leaf.
func Run(root *hier.Node, mach *machine.Machine, procs int, pol Policy) Result {
	if procs < 1 {
		procs = 1
	}
	res := Result{Procs: procs}
	if pol == Dynamic {
		res.Wall = dynFinish(root, mach, procs, &res)
		return res
	}
	res.Wall = subtreeDone(root, mach, procs, assign(root, procs), 0, &res)
	sort.Slice(res.Spans, func(i, j int) bool { return res.Spans[i].Start < res.Spans[j].Start })
	return res
}

// batchOps expands one constraint-batch update (Figure 1) into its array
// operations with flop counts and working sets, for a batch of scalar
// dimension m applied to a node of state dimension n with nnz Jacobian
// non-zeros.
func batchOps(m, n, nnz int) []machine.Op {
	fm, fn, fz := float64(m), float64(n), float64(nnz)
	const w = 8 // bytes per float64
	return []machine.Op{
		// A = C·Hᵀ and S = H·A + R: streams the n×n covariance.
		{Class: trace.DenseSparse, Flops: 2*fn*fz + 2*fz*fm, Workset: w * (fn*fn + 2*fn*fm)},
		// Cholesky factorization of the m×m innovation covariance.
		{Class: trace.Chol, Flops: fm * fm * fm / 3, Workset: w * fm * fm},
		// Gain K = A·S⁻¹: two triangular solves per state row.
		{Class: trace.Solve, Flops: 2 * fn * fm * fm, Workset: w * (fn*fm + fm*fm)},
		// State update x += K·(z − h). The working set is inflated by an
		// interleaving factor: the gain matrix was just evicted by the
		// large covariance-streaming operations (§4.4's explanation for the
		// poor cache behaviour of the small operations).
		{Class: trace.MatVec, Flops: 2 * fn * fm, Workset: w * 4 * fn * fm},
		// Covariance update C −= K·Aᵀ. The model keeps the paper's
		// full-matrix count (2n²m): Tables 3–6 are calibrated against the
		// 1996 kernels, which computed all n² entries. The real kernels
		// (mat.Syr2kSubLowerPar) now compute only the lower triangle — n(n+1)m
		// flops — so host wall-clock runs beat this model by ~2× on m-m.
		{Class: trace.MatMat, Flops: 2 * fn * fn * fm, Workset: w * (fn*fn + 2*fn*fm)},
		// Innovation, state accumulation and the other vector bookkeeping
		// of the Figure 1 loop body.
		{Class: trace.VecOp, Flops: 5*fn + 4*fm, Workset: w * 6 * fn},
	}
}

// nodeOps expands all prepared batches of a node into operations.
func nodeOps(n *hier.Node) []machine.Op {
	var ops []machine.Op
	for _, b := range n.Batches() {
		ops = append(ops, batchOps(b.Dim(), n.StateDim(), b.NNZUpper())...)
	}
	return ops
}

// subtreeDone returns the virtual time at which the subtree rooted at n
// completes under the static plan, given it may start at start, and
// records the span of each node's own constraint processing.
func subtreeDone(n *hier.Node, mach *machine.Machine, procs int, p plan, start float64, res *Result) float64 {
	childrenDone := start
	if len(n.Children) > 0 {
		groups := p[n]
		if groups == nil || procs == 1 {
			// Sequential children with the full team.
			t := start
			for _, c := range n.Children {
				t = subtreeDone(c, mach, procs, p, t, res)
			}
			childrenDone = t
		} else {
			// Concurrent processor groups; the node waits for the slowest
			// group (this synchronization is the source of the helix's
			// power-of-two speedup dips).
			for _, g := range groups {
				t := start
				for _, c := range g.nodes {
					t = subtreeDone(c, mach, g.procs, p, t, res)
				}
				if t > childrenDone {
					childrenDone = t
				}
			}
		}
	}
	// The node's own constraints, processed by its full team.
	t := childrenDone
	for _, op := range nodeOps(n) {
		wall := mach.Wall(op, procs)
		t += wall
		res.ClassBusy[op.Class] += wall * float64(procs)
		res.Ops++
	}
	res.Spans = append(res.Spans, Span{Node: n, Start: childrenDone, End: t, Procs: procs})
	return t
}
