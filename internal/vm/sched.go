package vm

import (
	"math"
	"sort"

	"phmse/internal/hier"
)

// The paper's static processor-assignment heuristic (§4.3): estimate the
// work at every node with the work model, accumulate subtree work
// bottom-up — hier.Node.Prepare does both, and Work reads the result — then
// recursively bipartition each node's processors over its child subtrees
// so that the processor split matches the work split as closely as
// possible. The output is a plan, which a Static run schedules the paper's
// Tables 3–6 from. The real solver keeps no plan: it posts every child
// subtree to the solve's crew, largest first (hier.Node.Prepare).

// group is a set of sibling subtrees executed one after another by one
// processor group; different groups of the same parent run concurrently.
type group struct {
	nodes []*hier.Node
	procs int
}

// plan maps each internal node to the partition of its children into
// concurrently executing processor groups. A node without an entry runs its
// children one after another, each with all of the node's processors.
type plan map[*hier.Node][]group

// assign runs the heuristic's steps 2–6 and returns the execution plan:
// all processors start at the root, and at every node the assigned
// processors are divided over the child subtrees by recursive best-match
// bipartition of the work.
func assign(root *hier.Node, procs int) plan {
	p := make(plan)
	assignNode(p, root, procs)
	return p
}

func assignNode(p plan, n *hier.Node, procs int) {
	if len(n.Children) == 0 {
		return
	}
	if procs <= 1 || len(n.Children) == 1 {
		// Sequential children; they may still split procs further below.
		for _, c := range n.Children {
			assignNode(p, c, procs)
		}
		return
	}
	// Step 3: order child subtrees by increasing work.
	children := append([]*hier.Node(nil), n.Children...)
	sort.SliceStable(children, func(i, j int) bool {
		return children[i].Work() < children[j].Work()
	})
	groups := partition(children, procs)
	p[n] = groups
	// Step 6: repeat for the children with their assigned processors.
	for _, g := range groups {
		for _, c := range g.nodes {
			assignNode(p, c, g.procs)
		}
	}
}

// partition implements steps 4–5: for every bipartition of the processors,
// find the split point among the (work-ordered) child subtrees dividing the
// work in a ratio closest to the processor ratio; pick the best match and
// recurse on the two halves.
func partition(children []*hier.Node, procs int) []group {
	if procs == 1 || len(children) == 1 {
		return []group{{nodes: children, procs: procs}}
	}
	total := 0.0
	prefix := make([]float64, len(children)+1)
	for i, c := range children {
		total += c.Work()
		prefix[i+1] = total
	}
	if total == 0 {
		// No information: split children as evenly as possible.
		mid := len(children) / 2
		if mid == 0 {
			mid = 1
		}
		k := procs / 2
		left := partition(children[:mid], k)
		right := partition(children[mid:], procs-k)
		return append(left, right...)
	}

	bestScore := 2.0
	bestK, bestSplit := 1, 1
	for k := 1; k < procs; k++ {
		procRatio := float64(k) / float64(procs)
		for s := 1; s < len(children); s++ {
			workRatio := prefix[s] / total
			score := math.Abs(workRatio - procRatio)
			if score < bestScore {
				bestScore, bestK, bestSplit = score, k, s
			}
		}
	}
	left := partition(children[:bestSplit], bestK)
	right := partition(children[bestSplit:], procs-bestK)
	return append(left, right...)
}
