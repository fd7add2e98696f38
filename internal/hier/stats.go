package hier

import (
	"fmt"
	"strings"
)

// Tree statistics supporting the paper's §3.1 complexity analysis: the
// average per-constraint cost of the hierarchical organization depends on
// how far down the tree the constraints can be pushed. If a node at level
// i of a depth-d binary tree gets a constant number of constraints, the
// cost is O(2^d) = O(n) per constraint (the optimistic bound); if a node
// carries as many constraints as its children combined, the advantage
// shrinks to O(n·(d+1)/d)… roughly O(n) per level, i.e. O(n·d) total (the
// pessimistic bound). LevelStats exposes where a real decomposition falls
// between the two.

// LevelStat aggregates one depth level of the tree (the root is level 0).
type LevelStat struct {
	Level    int
	Nodes    int
	Atoms    int // total atoms across the level's nodes (each counted once per node owning it in its subtree)
	Scalars  int // scalar constraints assigned at this level
	MeanDim  float64
	WorkFrac float64 // fraction of the §2 flop estimate spent at this level
}

// Stats summarizes a prepared or unprepared tree.
type Stats struct {
	Nodes      int
	Leaves     int
	Depth      int
	Scalars    int
	Work       float64 // the §2 flop estimate of one cycle over the whole tree
	Levels     []LevelStat
	LeafFrac   float64 // fraction of scalar constraints at the leaves
	DeepFrac   float64 // fraction in the bottom half of the tree
	WorkTopTwo float64 // fraction of estimated work in the top two levels
}

// ComputeStats walks the tree and aggregates the per-level constraint and
// work distribution. Work is estimated with the §2 flop model: a scalar
// constraint at a node of state dimension n costs ~2n² flops.
func ComputeStats(root *Node) Stats {
	s := Stats{Depth: root.MaxDepth()}
	levelScalars := map[int]int{}
	levelNodes := map[int]int{}
	levelAtoms := map[int]int{}
	levelWork := map[int]float64{}
	totalWork := 0.0

	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		s.Nodes++
		if n.IsLeaf() {
			s.Leaves++
		}
		scalars := n.scalars()
		s.Scalars += scalars
		levelScalars[depth] += scalars
		levelNodes[depth]++
		levelAtoms[depth] += len(n.Atoms)
		dim := float64(n.StateDim())
		w := float64(scalars) * 2 * dim * dim
		levelWork[depth] += w
		totalWork += w
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	s.Work = totalWork

	for lvl := 0; lvl < s.Depth; lvl++ {
		ls := LevelStat{
			Level:   lvl,
			Nodes:   levelNodes[lvl],
			Atoms:   levelAtoms[lvl],
			Scalars: levelScalars[lvl],
		}
		if ls.Nodes > 0 {
			ls.MeanDim = 3 * float64(ls.Atoms) / float64(ls.Nodes)
		}
		if totalWork > 0 {
			ls.WorkFrac = levelWork[lvl] / totalWork
		}
		s.Levels = append(s.Levels, ls)
	}
	if s.Scalars > 0 {
		leafScalars := 0
		deep := 0
		var walk2 func(n *Node, depth int)
		walk2 = func(n *Node, depth int) {
			scalars := 0
			for _, c := range n.Cons {
				scalars += c.Dim()
			}
			if n.IsLeaf() {
				leafScalars += scalars
			}
			if depth >= s.Depth/2 {
				deep += scalars
			}
			for _, c := range n.Children {
				walk2(c, depth+1)
			}
		}
		walk2(root, 0)
		s.LeafFrac = float64(leafScalars) / float64(s.Scalars)
		s.DeepFrac = float64(deep) / float64(s.Scalars)
	}
	for lvl := 0; lvl < 2 && lvl < len(s.Levels); lvl++ {
		s.WorkTopTwo += s.Levels[lvl].WorkFrac
	}
	return s
}

// Format renders the level table with the §3.1 interpretation.
func (s Stats) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d nodes, %d leaves, depth %d, %d scalar constraints\n",
		s.Nodes, s.Leaves, s.Depth, s.Scalars)
	fmt.Fprintf(&b, "level | nodes | mean dim | scalars | work share\n")
	for _, l := range s.Levels {
		fmt.Fprintf(&b, "%5d | %5d | %8.0f | %7d | %9.1f%%\n",
			l.Level, l.Nodes, l.MeanDim, l.Scalars, 100*l.WorkFrac)
	}
	fmt.Fprintf(&b, "constraints at leaves: %.1f%%; in the bottom half: %.1f%%\n",
		100*s.LeafFrac, 100*s.DeepFrac)
	fmt.Fprintf(&b, "estimated work in the top two levels: %.1f%%\n", 100*s.WorkTopTwo)
	return b.String()
}
