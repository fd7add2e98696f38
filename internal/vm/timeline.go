package vm

import (
	"fmt"
	"strings"

	"phmse/internal/hier"
)

// Span records when one node's own constraint processing ran in a
// virtual-time execution, and with how many processors. Child subtree
// execution is covered by the children's own spans.
type Span struct {
	Node       *hier.Node
	Start, End float64
	Procs      int
}

// FormatTimeline renders the spans of the tree's top levels as a text
// chart: one line per node with its processing interval, processor count,
// and a proportional bar. maxDepth 1 shows only the root's children plus
// the root.
func FormatTimeline(root *hier.Node, spans []Span, wall float64, maxDepth int) string {
	depth := map[*hier.Node]int{}
	var mark func(n *hier.Node, d int)
	mark = func(n *hier.Node, d int) {
		depth[n] = d
		for _, c := range n.Children {
			mark(c, d+1)
		}
	}
	mark(root, 0)

	const width = 48
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %5s %9s %9s  timeline (wall %.2fs)\n", "node", "procs", "start", "end", wall)
	for _, s := range spans {
		d, ok := depth[s.Node]
		if !ok || d > maxDepth {
			continue
		}
		lo := int(s.Start / wall * width)
		hi := int(s.End / wall * width)
		if hi <= lo {
			hi = lo + 1
		}
		if hi > width {
			hi = width
		}
		bar := strings.Repeat(" ", lo) + strings.Repeat("#", hi-lo) + strings.Repeat(" ", width-hi)
		fmt.Fprintf(&b, "%-22s %5d %9.2f %9.2f  |%s|\n",
			indentName(s.Node.Name, d), s.Procs, s.Start, s.End, bar)
	}
	return b.String()
}

func indentName(name string, depth int) string {
	if len(name) > 18 {
		name = name[:18]
	}
	return strings.Repeat("  ", depth) + name
}
