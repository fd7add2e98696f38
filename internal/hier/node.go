// Package hier implements the paper's hierarchical decomposition (§3): the
// structure tree, the assignment of every constraint to the smallest node
// wholly containing it, the post-order update schedule, and the parallel
// execution of disjoint subtrees on the solve's crew (§4.2). It also
// provides the automatic decomposition methods sketched in §5: recursive
// bisection of a flat specification and constraint-graph partitioning.
package hier

import (
	"fmt"
	"sort"

	"phmse/internal/constraint"
	"phmse/internal/filter"
	"phmse/internal/molecule"
	"phmse/internal/workest"
)

// Node is one node of the structure hierarchy. Its state vector is the
// concatenation of its children's state vectors followed by any atoms it
// owns directly, so a child's posterior estimate maps onto a contiguous
// block of the parent's state — and, all the way up, of the root's.
type Node struct {
	Name     string
	Children []*Node
	Direct   []int // atoms owned directly (all of them, for a leaf)
	Atoms    []int // subtree atoms: children's blocks in order, then Direct
	// Rows are the rows of the tree's constraint set the node applies, in
	// set order.
	Rows []int32

	parent *Node
	// cons is the tree's constraint set, shared by every node and read by
	// every batch through this pointer: Rebind stores another set of the
	// same topology in it.
	cons *constraint.Set
	// The tree's one index: pos, shared by every node, maps a global atom
	// to its place in the root's Atoms (−1 for an atom the tree does not
	// hold), and a node's Atoms are the run [lo, lo+len(Atoms)) of that
	// order. So the node holds atom a iff pos[a] falls in its run, at local
	// state slot pos[a] − lo.
	pos []int32
	lo  int

	batches []*filter.Batch
	// order is the children's indices, largest subtree work first: the
	// order a pass posts them to the crew in.
	order    []int
	work     float64 // the subtree's flop-model work at the prepared batch size
	prepared int     // the batch size the subtree's batches were built for; 0 before Prepare
}

// Build mirrors a molecule.Group tree into a Node tree and assigns every
// constraint to the lowest node that contains all of its atoms. It returns
// an error if a constraint references an atom outside the tree or an atom
// appears in two leaves.
func Build(root *molecule.Group, cons *constraint.Set) (*Node, error) {
	set := new(constraint.Set) // nil cons: no constraints
	if cons != nil {
		*set = *cons
	}
	node := fromGroup(root, nil, set)
	if err := node.layout(); err != nil {
		return nil, err
	}
	for r := range set.Len() {
		m, err := node.home(r)
		if err != nil {
			return nil, err
		}
		m.Rows = append(m.Rows, int32(r))
	}
	return node, nil
}

func fromGroup(g *molecule.Group, parent *Node, cons *constraint.Set) *Node {
	n := &Node{Name: g.Name, Direct: append([]int(nil), g.AtomIDs...), parent: parent, cons: cons}
	sort.Ints(n.Direct)
	if len(g.Children) > 0 {
		n.Children = make([]*Node, len(g.Children))
		for i, cg := range g.Children {
			n.Children[i] = fromGroup(cg, n, cons)
		}
	}
	return n
}

// Constraints returns the tree's constraint set, which the nodes' Rows
// index.
func (n *Node) Constraints() *constraint.Set { return n.cons }

// Group returns the subtree as the grouping Build would build it from.
func (n *Node) Group() *molecule.Group {
	g := &molecule.Group{Name: n.Name, AtomIDs: append([]int(nil), n.Direct...)}
	for _, c := range n.Children {
		g.Children = append(g.Children, c.Group())
	}
	return g
}

// layout lays the tree's atoms out in state order — depth first, a node's
// children in order and then its direct atoms — and records it: the root's
// Atoms, every other node's Atoms as a run of them, pos and lo. It is an
// error for an atom to be owned twice or negative, or a group to be empty.
func (n *Node) layout() error {
	total, maxAtom := 0, -1
	n.Walk(func(m *Node) {
		total += len(m.Direct)
		if k := len(m.Direct); k > 0 && m.Direct[k-1] > maxAtom {
			maxAtom = m.Direct[k-1] // Direct is sorted
		}
	})
	order := make([]int, 0, total)
	pos := make([]int32, maxAtom+1)
	for i := range pos {
		pos[i] = -1
	}
	var place func(m *Node) error
	place = func(m *Node) error {
		m.pos, m.lo = pos, len(order)
		m.batches, m.order, m.work, m.prepared = nil, nil, 0, 0 // slots follow the order
		for _, c := range m.Children {
			if err := place(c); err != nil {
				return err
			}
		}
		for _, a := range m.Direct {
			if a < 0 {
				return fmt.Errorf("hier: group %q owns negative atom %d", m.Name, a)
			}
			if pos[a] >= 0 {
				return fmt.Errorf("hier: atom %d owned by two groups", a)
			}
			pos[a] = int32(len(order))
			order = append(order, a)
		}
		if len(order) == m.lo {
			return fmt.Errorf("hier: group %q has no atoms", m.Name)
		}
		// order was allocated at its final size, so the run stays valid as
		// the rest of the tree is appended behind it.
		m.Atoms = order[m.lo:len(order):len(order)]
		return nil
	}
	return place(n)
}

// slot returns the local state slot of a global atom, −1 when the node does
// not hold it.
func (n *Node) slot(atom int) int {
	if atom < 0 || atom >= len(n.pos) {
		return -1
	}
	if s := int(n.pos[atom]) - n.lo; s >= 0 && s < len(n.Atoms) {
		return s
	}
	return -1
}

// home returns the lowest node containing all of row r's atoms: the lowest
// whose run holds both the first and the last of them in state order.
func (n *Node) home(r int) (*Node, error) {
	first, last := len(n.pos), -1
	for _, a := range n.cons.Atoms(r) {
		if n.slot(int(a)) < 0 {
			return nil, fmt.Errorf("hier: constraint %d (%v) references atom %d outside the tree", r, n.cons.Row(r), a)
		}
		p := int(n.pos[a])
		first, last = min(first, p), max(last, p)
	}
	node := n
descend:
	for {
		for _, child := range node.Children {
			if end := child.lo + len(child.Atoms); first < end {
				if last >= end {
					break descend // atoms span two children: it belongs here
				}
				node = child
				continue descend
			}
		}
		break // first is one of the node's direct atoms
	}
	return node, nil
}

// Rebind points a prepared tree at another constraint set of the same
// topology, in place: the set replaces the tree's, which every node's
// Rows and every batch read, so the batches — their sparse builders,
// kept gather plans and assembly scratch included — serve the new values
// without being built again. The set must have the tree's kind and atom
// columns; on error the tree is unchanged. It is called on the root.
func (n *Node) Rebind(cons *constraint.Set) error {
	if n.prepared == 0 {
		return fmt.Errorf("hier: rebinding an unprepared tree")
	}
	if !n.cons.SameTopology(cons) {
		return fmt.Errorf("hier: the constraint set's topology is not the tree's")
	}
	*n.cons = *cons
	return nil
}

// Prepare builds the per-node constraint batches for the given batch size,
// scores every subtree's work under the flop model (Work), and orders every
// node's children by it, largest first, ties by index —
// longest-processing-time-first, the order a pass posts them to the crew
// in, so the subtree that takes longest starts first. It must be called
// before a virtual-machine run or onePass; Solve calls it when the tree has
// not been prepared for the batch size it is given.
func (n *Node) Prepare(batchSize int) error {
	if batchSize < 1 {
		batchSize = filter.DefaultBatchSize
	}
	return n.prepare(batchSize)
}

// prepare is Prepare on a defaulted batch size.
func (n *Node) prepare(batchSize int) error {
	batches, err := filter.MakeBatches(n.cons, n.Rows, n.slot, batchSize)
	if err != nil {
		return fmt.Errorf("node %q: %w", n.Name, err)
	}
	n.batches = batches
	n.work = workest.FlopModel{}.NodeWork(n.StateDim(), n.Scalars(), batchSize)
	n.order = make([]int, len(n.Children))
	for i, c := range n.Children {
		if err := c.prepare(batchSize); err != nil {
			return err
		}
		n.work += c.work
		n.order[i] = i
	}
	sort.SliceStable(n.order, func(a, b int) bool { return n.Children[n.order[a]].work > n.Children[n.order[b]].work })
	n.prepared = batchSize
	return nil
}

// BatchSize returns the batch size the subtree was prepared for (0 before
// Prepare).
func (n *Node) BatchSize() int { return n.prepared }

// Work returns the subtree's work under the flop model at the prepared
// batch size, in relative units: the node's own constraints plus its
// children's subtrees (0 before Prepare). The virtual machine's static
// processor assignment divides the processors by it.
func (n *Node) Work() float64 { return n.work }

// Batches returns the prepared constraint batches of this node.
func (n *Node) Batches() []*filter.Batch { return n.batches }

// StateDim returns the node's state dimension (3 × subtree atoms).
func (n *Node) StateDim() int { return 3 * len(n.Atoms) }

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Parent returns the node's parent (nil at the root).
func (n *Node) Parent() *Node { return n.parent }

// Walk visits the subtree in pre-order.
func (n *Node) Walk(f func(*Node)) {
	f(n)
	for _, c := range n.Children {
		c.Walk(f)
	}
}

// Count returns the number of nodes in the subtree.
func (n *Node) Count() int {
	total := 0
	n.Walk(func(*Node) { total++ })
	return total
}

// Scalars returns the scalar constraint dimension assigned to the node
// itself.
func (n *Node) Scalars() int {
	total := 0
	for _, r := range n.Rows {
		total += n.cons.Kind(int(r)).Dim()
	}
	return total
}

// MaxDepth returns the height of the subtree (a leaf is 1).
func (n *Node) MaxDepth() int {
	d := 0
	for _, c := range n.Children {
		if cd := c.MaxDepth(); cd > d {
			d = cd
		}
	}
	return d + 1
}

func (n *Node) String() string {
	kind := "node"
	if n.IsLeaf() {
		kind = "leaf"
	}
	return fmt.Sprintf("%s %q: %d atoms, %d constraints, %d children",
		kind, n.Name, len(n.Atoms), len(n.Rows), len(n.Children))
}

// Dump renders the subtree as an indented outline (used to reproduce the
// paper's Figure 2 and Figure 4 decomposition diagrams in text form).
func (n *Node) Dump() string {
	out := ""
	var rec func(m *Node, depth int)
	rec = func(m *Node, depth int) {
		for i := 0; i < depth; i++ {
			out += "  "
		}
		out += fmt.Sprintf("%s (%d atoms, %d constraints)\n", m.Name, len(m.Atoms), m.Scalars())
		for _, c := range m.Children {
			rec(c, depth+1)
		}
	}
	rec(n, 0)
	return out
}
