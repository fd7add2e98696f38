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
	"phmse/internal/hier"
	"phmse/internal/machine"
	"phmse/internal/trace"
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
}

// ClassSeconds returns the per-class busy time divided by the processor
// count — the per-class columns of the paper's Tables 3–6.
func (r Result) ClassSeconds() trace.Times {
	return r.ClassBusy.Scale(1 / float64(r.Procs))
}

// BatchOps expands one constraint-batch update (Figure 1) into its array
// operations with flop counts and working sets, for a batch of scalar
// dimension m applied to a node of state dimension n with nnz Jacobian
// non-zeros.
func BatchOps(m, n, nnz int) []machine.Op {
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

// NodeOps expands all prepared batches of a node into operations. The node
// must have been prepared (hier.Node.Prepare).
func NodeOps(n *hier.Node) []machine.Op {
	var ops []machine.Op
	for _, b := range n.Batches() {
		ops = append(ops, BatchOps(b.Dim(), n.StateDim(), b.NNZUpper())...)
	}
	return ops
}

// Run models one complete cycle of the parallel hierarchical computation on
// the machine with the given processor count and §4.3 static assignment
// (Assign; nil: sequential tree walk with full-team intra-node
// parallelism). The tree must be prepared.
func Run(root *hier.Node, mach *machine.Machine, procs int, plan *Plan) Result {
	if procs < 1 {
		procs = 1
	}
	res := Result{Procs: procs}
	res.Wall = subtreeDone(root, mach, procs, plan, 0, &res, nil)
	return res
}

// subtreeDone returns the virtual time at which the subtree rooted at n
// completes, given it may start at start. A non-nil spans collects when
// each node's own constraint processing ran (see Trace).
func subtreeDone(n *hier.Node, mach *machine.Machine, procs int, plan *Plan, start float64, res *Result, spans *[]Span) float64 {
	childrenDone := start
	if len(n.Children) > 0 {
		groups := planGroups(plan, n)
		if groups == nil || procs == 1 {
			// Sequential children with the full team.
			t := start
			for _, c := range n.Children {
				t = subtreeDone(c, mach, procs, plan, t, res, spans)
			}
			childrenDone = t
		} else {
			// Concurrent processor groups; the node waits for the slowest
			// group (this synchronization is the source of the helix's
			// power-of-two speedup dips).
			for _, g := range groups {
				t := start
				for _, c := range g.Nodes {
					t = subtreeDone(c, mach, g.Procs, plan, t, res, spans)
				}
				if t > childrenDone {
					childrenDone = t
				}
			}
		}
	}
	// The node's own constraints, processed by its full team.
	t := childrenDone
	for _, op := range NodeOps(n) {
		wall := mach.Wall(op, procs)
		t += wall
		res.ClassBusy[op.Class] += wall * float64(procs)
		res.Ops++
	}
	if spans != nil {
		*spans = append(*spans, Span{Node: n, Start: childrenDone, End: t, Procs: procs})
	}
	return t
}

func planGroups(plan *Plan, n *hier.Node) []Group {
	if plan == nil || plan.Groups == nil {
		return nil
	}
	return plan.Groups[n]
}

// RunFlat models the flat (single node) organization: all constraints
// applied to the full-dimension state.
func RunFlat(stateDim int, batches []BatchShape, mach *machine.Machine, procs int) Result {
	res := Result{Procs: procs}
	t := 0.0
	for _, b := range batches {
		for _, op := range BatchOps(b.Dim, stateDim, b.NNZ) {
			wall := mach.Wall(op, procs)
			t += wall
			res.ClassBusy[op.Class] += wall * float64(procs)
			res.Ops++
		}
	}
	res.Wall = t
	return res
}

// BatchShape is the dimensional footprint of one constraint batch.
type BatchShape struct {
	Dim int // scalar observations
	NNZ int // Jacobian non-zeros
}

// FlatShapes slices a problem of the given total scalar dimension into
// batches of size m with nnzPerScalar non-zeros per scalar row.
func FlatShapes(totalScalars, m, nnzPerScalar int) []BatchShape {
	var out []BatchShape
	for got := 0; got < totalScalars; got += m {
		d := min(m, totalScalars-got)
		out = append(out, BatchShape{Dim: d, NNZ: d * nnzPerScalar})
	}
	return out
}
