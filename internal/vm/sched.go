package vm

import (
	"sort"

	"phmse/internal/filter"
	"phmse/internal/hier"
)

// The paper's static processor-assignment heuristic (§4.3): estimate the
// work at every node with the fitted work model, accumulate subtree work
// bottom-up, then recursively bipartition each node's processors over its
// child subtrees so that the processor split matches the work split as
// closely as possible. The output is a Plan, which Run schedules the
// paper's Tables 3–6 from. The real solver keeps no plan: it posts every
// child subtree to the solve's crew, largest first (hier.Node.Prepare).

// Estimator predicts the relative work of applying a node's own
// constraints. Both workest.Model (the fitted Equation 1) and
// workest.FlopModel satisfy it.
type Estimator interface {
	NodeWork(stateDim, scalarConstraints, batchDim int) float64
}

// Group is a set of sibling subtrees executed one after another by one
// processor group; different groups of the same parent run concurrently.
type Group struct {
	Nodes []*hier.Node
	Procs int
}

// Plan maps each internal node to the partition of its children into
// concurrently executing processor groups. A node without an entry runs its
// children one after another, each with all of the node's processors.
type Plan struct {
	Groups map[*hier.Node][]Group
}

// Work holds the bottom-up work estimates for a tree.
type Work struct {
	Own     map[*hier.Node]float64 // work of the node's own constraints
	Subtree map[*hier.Node]float64 // accumulated over the subtree
}

// EstimateWork computes per-node and per-subtree work estimates (step 1 of
// the heuristic).
func EstimateWork(root *hier.Node, est Estimator, batchDim int) *Work {
	if batchDim <= 0 {
		batchDim = filter.DefaultBatchSize
	}
	w := &Work{
		Own:     make(map[*hier.Node]float64),
		Subtree: make(map[*hier.Node]float64),
	}
	var rec func(n *hier.Node) float64
	rec = func(n *hier.Node) float64 {
		own := est.NodeWork(n.StateDim(), n.Scalars(), batchDim)
		w.Own[n] = own
		total := own
		for _, c := range n.Children {
			total += rec(c)
		}
		w.Subtree[n] = total
		return total
	}
	rec(root)
	return w
}

// Assign runs the full heuristic (steps 2–6) and returns the execution
// plan: all processors start at the root, and at every node the assigned
// processors are divided over the child subtrees by recursive best-match
// bipartition of the work.
func Assign(root *hier.Node, procs int, w *Work) *Plan {
	plan := &Plan{Groups: make(map[*hier.Node][]Group)}
	assignNode(plan, root, procs, w)
	return plan
}

func assignNode(plan *Plan, n *hier.Node, procs int, w *Work) {
	if len(n.Children) == 0 {
		return
	}
	if procs <= 1 || len(n.Children) == 1 {
		// Sequential children; they may still split procs further below.
		for _, c := range n.Children {
			assignNode(plan, c, procs, w)
		}
		return
	}
	// Step 3: order child subtrees by increasing work.
	children := append([]*hier.Node(nil), n.Children...)
	sort.SliceStable(children, func(i, j int) bool {
		return w.Subtree[children[i]] < w.Subtree[children[j]]
	})
	groups := partition(children, procs, w)
	plan.Groups[n] = groups
	// Step 6: repeat for the children with their assigned processors.
	for _, g := range groups {
		for _, c := range g.Nodes {
			assignNode(plan, c, g.Procs, w)
		}
	}
}

// partition implements steps 4–5: for every bipartition of the processors,
// find the split point among the (work-ordered) child subtrees dividing the
// work in a ratio closest to the processor ratio; pick the best match and
// recurse on the two halves.
func partition(children []*hier.Node, procs int, w *Work) []Group {
	if procs == 1 || len(children) == 1 {
		return []Group{{Nodes: children, Procs: procs}}
	}
	total := 0.0
	prefix := make([]float64, len(children)+1)
	for i, c := range children {
		total += w.Subtree[c]
		prefix[i+1] = total
	}
	if total == 0 {
		// No information: split children as evenly as possible.
		mid := len(children) / 2
		if mid == 0 {
			mid = 1
		}
		k := procs / 2
		left := partition(children[:mid], k, w)
		right := partition(children[mid:], procs-k, w)
		return append(left, right...)
	}

	bestScore := 2.0
	bestK, bestSplit := 1, 1
	for k := 1; k < procs; k++ {
		procRatio := float64(k) / float64(procs)
		for s := 1; s < len(children); s++ {
			workRatio := prefix[s] / total
			score := abs(workRatio - procRatio)
			if score < bestScore {
				bestScore, bestK, bestSplit = score, k, s
			}
		}
	}
	left := partition(children[:bestSplit], bestK, w)
	right := partition(children[bestSplit:], procs-bestK, w)
	return append(left, right...)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// imbalance predicts the load imbalance of a plan from the work estimates:
// for every node whose children run as parallel groups, the ratio of the
// slowest group's per-processor work to the mean. 1.0 is perfect balance;
// the helix's 2-equal-subtrees shape at three processors yields 4/3. The
// worst ratio over the tree correlates with the wall-clock dips of the
// static scheme (Tables 3 and 5).
func imbalance(root *hier.Node, plan *Plan, w *Work) (worst float64, byNode map[*hier.Node]float64) {
	worst = 1
	byNode = map[*hier.Node]float64{}
	if plan == nil || plan.Groups == nil {
		return worst, byNode
	}
	for node, groups := range plan.Groups {
		if len(groups) < 2 {
			continue
		}
		perProc := make([]float64, len(groups))
		sum := 0.0
		for i, g := range groups {
			total := 0.0
			for _, c := range g.Nodes {
				total += w.Subtree[c]
			}
			perProc[i] = total / float64(g.Procs)
			sum += perProc[i]
		}
		mean := sum / float64(len(groups))
		if mean <= 0 {
			continue
		}
		maxPP := perProc[0]
		for _, v := range perProc[1:] {
			if v > maxPP {
				maxPP = v
			}
		}
		ratio := maxPP / mean
		byNode[node] = ratio
		if ratio > worst {
			worst = ratio
		}
	}
	return worst, byNode
}
