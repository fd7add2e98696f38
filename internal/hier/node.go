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
	Cons     []constraint.Constraint

	parent *Node
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
	prepared int // the batch size the subtree's batches were built for; 0 before Prepare
	// sig is what Rebind checks a new constraint against: for each of
	// Cons in turn, its atom count and then its atoms, recorded at the
	// tree's first Rebind from the constraints it was laid out with. next
	// and nextSig are Rebind's cursors into Cons and sig.
	sig           []int32
	next, nextSig int
}

// Build mirrors a molecule.Group tree into a Node tree and assigns every
// constraint to the lowest node that contains all of its atoms. It returns
// an error if a constraint references an atom outside the tree or an atom
// appears in two leaves.
func Build(root *molecule.Group, cons []constraint.Constraint) (*Node, error) {
	node := fromGroup(root, nil)
	if err := node.layout(); err != nil {
		return nil, err
	}
	for _, c := range cons {
		if err := node.assign(c); err != nil {
			return nil, err
		}
	}
	return node, nil
}

func fromGroup(g *molecule.Group, parent *Node) *Node {
	n := &Node{Name: g.Name, Direct: append([]int(nil), g.AtomIDs...), parent: parent}
	sort.Ints(n.Direct)
	if len(g.Children) > 0 {
		n.Children = make([]*Node, len(g.Children))
		for i, cg := range g.Children {
			n.Children[i] = fromGroup(cg, n)
		}
	}
	return n
}

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
		m.batches, m.order, m.prepared, m.sig = nil, nil, 0, nil // slots follow the order
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

// assign pushes the constraint to the lowest node containing all its atoms.
func (n *Node) assign(c constraint.Constraint) error {
	node, err := n.home(c, c.Atoms())
	if err != nil {
		return err
	}
	node.Cons = append(node.Cons, c)
	return nil
}

// home returns the lowest node containing all of the constraint's atoms:
// the lowest whose run holds both the first and the last of them in state
// order.
func (n *Node) home(c constraint.Constraint, atoms []int) (*Node, error) {
	first, last := len(n.pos), -1
	for _, a := range atoms {
		if n.slot(a) < 0 {
			return nil, fmt.Errorf("hier: constraint %v references atom %d outside the tree", c, a)
		}
		p := int(n.pos[a])
		first, last = min(first, p), max(last, p)
	}
	if last < 0 {
		return nil, fmt.Errorf("hier: constraint %v references no atoms", c)
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
// topology, in place: each constraint replaces the one at the same place
// in its node's Cons, which the node's batches alias, so the batches —
// their sparse builders, kept gather plans and assembly scratch included —
// serve the new values without being built again. Every constraint is
// checked: it must land on the same node as the one it replaces, with the
// same atoms in the same order and the same Dim, and every node's
// constraints must all be replaced. On success the tree is the one Build
// and Prepare would make from cons; on error it holds a mix of the two sets
// and must be discarded.
func (n *Node) Rebind(cons []constraint.Constraint) error {
	if n.prepared == 0 {
		return fmt.Errorf("hier: rebinding an unprepared tree")
	}
	held := 0
	n.Walk(func(m *Node) {
		if m.sig == nil {
			m.sig = m.signature()
		}
		m.next, m.nextSig, held = 0, 0, held+len(m.Cons)
	})
	if len(cons) != held {
		return fmt.Errorf("hier: %d constraints for a tree holding %d", len(cons), held)
	}
	// With the count equal and no node taking more than it holds, every
	// node's constraints are all replaced.
	for _, c := range cons {
		atoms := c.Atoms()
		m, err := n.home(c, atoms)
		if err != nil {
			return err
		}
		if !m.takes(c, atoms) {
			return fmt.Errorf("hier: constraint %v is not the one node %q holds at %d", c, m.Name, m.next)
		}
		m.Cons[m.next] = c
		m.next++
	}
	return nil
}

// signature records the node's constraints as Rebind checks them.
func (n *Node) signature() []int32 {
	var sig []int32
	for _, c := range n.Cons {
		atoms := c.Atoms()
		sig = append(sig, int32(len(atoms)))
		for _, a := range atoms {
			sig = append(sig, int32(a))
		}
	}
	return sig
}

// takes reports whether c, with the given atoms, matches the node's next
// constraint to rebind — same Dim, same atoms in order — and if so moves
// the signature cursor past it.
func (n *Node) takes(c constraint.Constraint, atoms []int) bool {
	if n.next >= len(n.Cons) || n.Cons[n.next].Dim() != c.Dim() {
		return false
	}
	sig := n.sig[n.nextSig:]
	if len(sig) < 1+len(atoms) || sig[0] != int32(len(atoms)) {
		return false
	}
	for k, a := range atoms {
		if sig[1+k] != int32(a) {
			return false
		}
	}
	n.nextSig += 1 + len(atoms)
	return true
}

// Prepare builds the per-node constraint batches for the given batch size,
// and orders every node's children by their subtree's work under the flop
// model, largest first, ties by index — longest-processing-time-first,
// the order a pass posts them to the crew in, so the subtree that takes
// longest starts first. It must be called before a virtual-machine run or
// UpdatePass; Solve calls it when the tree has not been prepared for the
// batch size it is given.
func (n *Node) Prepare(batchSize int) error {
	if batchSize < 1 {
		batchSize = filter.DefaultBatchSize
	}
	_, err := n.prepare(batchSize)
	return err
}

// prepare is Prepare on a defaulted batch size; it returns the subtree's
// work.
func (n *Node) prepare(batchSize int) (float64, error) {
	batches, err := filter.MakeBatches(n.Cons, n.slot, batchSize)
	if err != nil {
		return 0, fmt.Errorf("node %q: %w", n.Name, err)
	}
	n.batches = batches
	work := workest.FlopModel{}.NodeWork(n.StateDim(), n.scalars(), batchSize)
	sub := make([]float64, len(n.Children))
	n.order = make([]int, len(n.Children))
	for i, c := range n.Children {
		if sub[i], err = c.prepare(batchSize); err != nil {
			return 0, err
		}
		work += sub[i]
		n.order[i] = i
	}
	sort.SliceStable(n.order, func(a, b int) bool { return sub[n.order[a]] > sub[n.order[b]] })
	n.prepared = batchSize
	return work, nil
}

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

// scalars returns the scalar constraint dimension assigned to the node
// itself.
func (n *Node) scalars() int {
	total := 0
	for _, c := range n.Cons {
		total += c.Dim()
	}
	return total
}

// ScalarConstraints returns the total scalar constraint dimension assigned
// in the subtree.
func (n *Node) ScalarConstraints() int {
	total := 0
	n.Walk(func(m *Node) { total += m.scalars() })
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
		kind, n.Name, len(n.Atoms), len(n.Cons), len(n.Children))
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
		out += fmt.Sprintf("%s (%d atoms, %d constraints)\n", m.Name, len(m.Atoms), m.scalars())
		for _, c := range m.Children {
			rec(c, depth+1)
		}
	}
	rec(n, 0)
	return out
}
