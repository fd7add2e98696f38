package hier

import (
	"fmt"

	"phmse/internal/constraint"
	"phmse/internal/filter"
	"phmse/internal/molecule"
)

// WorkModel scores a node pass: the estimated work of applying scalars
// scalar constraints, batchDim at a time, at a node of the given state
// dimension. It is the estimator the static processor assignment already
// takes (sched.Estimator); workest.Model and workest.FlopModel satisfy it.
type WorkModel interface {
	NodeWork(stateDim, scalars, batchDim int) float64
}

// sweepFloor is the number of scalars a node of the given dimension is
// charged for at least, if it has any. A batch update streams the node's
// whole lower triangle once whatever its dimension m — pack, gather, n²/2
// doubles read and written — and for small m that sweep, not the
// arithmetic, is what takes the time. Measured with workest.MeasureTable2
// on the AVX2 tile: a batch at n = 2400 takes 3.0–3.7 ms for every m from
// 1 to 6 against 0.30 ms per scalar beyond m = 16 (a floor of ≈ 10
// scalars), at n = 1200 0.75 ms against 0.09 (≈ 8), at n = 741 0.31
// against 0.047 (≈ 7); where the triangle stays in cache the floor is the
// fixed per-batch work alone: 0.055 ms against 0.014 at n = 342 (≈ 4),
// 0.012–0.02 against 0.005 at n = 129 (≈ 3–4). Two regimes, split where the
// triangle (4n² bytes) outgrows a megabyte.
func sweepFloor(dim int) int {
	if dim <= 512 {
		return 4
	}
	return 8
}

// nodeCost is the model work of applying scalars constraints at a node of
// dimension dim, a node with fewer than sweepFloor of them charged for the
// floor — what keeps a handful of scalars from being moved into a rank-3
// sweep of their own over a block nearly as wide as the one they left.
func nodeCost(model WorkModel, dim, scalars, batch int) float64 {
	if scalars > 0 {
		scalars = max(scalars, sweepFloor(dim))
	}
	return model.NodeWork(dim, scalars, batch)
}

// worthwhile is the share of the tree's model cost a regrouping has to
// save to be applied. Regrouping changes the order constraints are applied
// in, and with nonlinear constraints that changes which starts converge and
// in how many cycles (Protein(24) from thirty 0.5 Å starts: 25 converge on
// the given tree, 26 on the regrouped one — not the same ones) — a price
// worth paying for a third of the work, not for the 3 % there is to save
// where a tree's wide nodes hold little of its work.
const worthwhile = 0.1

// Regroup rescores the tree against the work model before it is solved:
// every node with more than two children has its children merged pairwise,
// bottom-up, so that the node's constraints land on the smallest block that
// holds them (§3: a scalar costs O(n²) at a node of dimension n). A join
// moves the constraints it would wholly contain from the parent's dimension
// to the pair's, and at each step the pair is joined whose join lowers the
// tree's model cost the most per coordinate of the block it creates: every
// later join onto that block pays for its width, and scored by the saving
// alone the widest cluster attracts every join and the tree degenerates
// into a chain of near-root-sized blocks (ribo30S: depth 26, 7 % more model
// work, and a fifth slower under the static processor split, which can
// only serialise a chain). The merging stops when no join lowers the cost;
// the surviving clusters are the node's children. Inserted nodes are named
// after their parent and the step that made them. A binary tree comes out
// untouched, and so does one whose regrouping would not save a worthwhile
// share of its cost. It reports whether anything changed; if so the tree's
// state order has changed with it, and Prepare must be called (again)
// before a solve.
func (n *Node) Regroup(model WorkModel, batchSize int) bool {
	if batchSize < 1 {
		batchSize = filter.DefaultBatchSize
	}
	plans, saved := n.planRegroup(model, batchSize, nil)
	if len(plans) == 0 {
		return false
	}
	cost := 0.0
	n.Walk(func(m *Node) { cost += nodeCost(model, m.StateDim(), m.scalars(), batchSize) })
	if saved < worthwhile*cost {
		return false
	}
	for _, r := range plans {
		r.apply()
	}
	if err := n.layout(); err != nil {
		panic(err) // the atoms were laid out once already; only a bug gets here
	}
	return true
}

// regrouping is the plan for one wide node: the joins in the order they
// were chosen, each a pair of slots of the node's children (the joined
// cluster takes the first), and for every constraint of the node the
// 1-based join that takes it with it, 0 for one that stays.
type regrouping struct {
	node    *Node
	joins   [][2]int
	movedAt []int32
}

// planRegroup appends the regroupings of the subtree's wide nodes to plans
// and returns them with the model cost they save between them. Nothing is
// changed: a child's dimension and atoms are what they are however it is
// regrouped inside.
func (n *Node) planRegroup(model WorkModel, batch int, plans []regrouping) ([]regrouping, float64) {
	saved := 0.0
	for _, c := range n.Children {
		var s float64
		plans, s = c.planRegroup(model, batch, plans)
		saved += s
	}
	if len(n.Children) <= 2 {
		return plans, saved
	}

	// owner[s] is the child holding the node's local atom slot s.
	k := len(n.Children)
	dims := make([]int, k)
	owner := make([]int32, len(n.Atoms)-len(n.Direct))
	for ci, c := range n.Children {
		dims[ci] = c.StateDim()
		for s := c.lo - n.lo; s < c.lo-n.lo+len(c.Atoms); s++ {
			owner[s] = int32(ci)
		}
	}
	// A constraint is pending while it could still move down: it touches
	// children only (one that touches a direct atom stays whatever is
	// joined), and more than one of them, which Build has seen to. The
	// distinct clusters it touches, as slots, are touched[off : off+n].
	type pending struct{ con, dim, off, n int32 }
	pend := make([]pending, 0, len(n.Cons))
	touched := make([]int32, 0, 2*len(n.Cons))
	scalars := 0 // all of the node's, pending or not
cons:
	for i, c := range n.Cons {
		scalars += c.Dim()
		off := len(touched)
	atoms:
		for _, a := range c.Atoms() {
			s := n.slot(a)
			if s >= len(owner) {
				touched = touched[:off]
				continue cons
			}
			for _, cl := range touched[off:] {
				if cl == owner[s] {
					continue atoms
				}
			}
			touched = append(touched, owner[s])
		}
		pend = append(pend, pending{con: int32(i), dim: int32(c.Dim()), off: int32(off), n: int32(len(touched) - off)})
	}

	r := regrouping{node: n, movedAt: make([]int32, len(n.Cons))}
	total := n.StateDim()
	weight := make([]int, k*k) // weight[a*k+b], a < b: scalars wholly inside a ∪ b
	for {
		clear(weight)
		for _, p := range pend {
			if p.n == 2 {
				a, b := touched[p.off], touched[p.off+1]
				weight[int(min(a, b))*k+int(max(a, b))] += int(p.dim)
			}
		}
		// The join that lowers the cost most per coordinate of the block it
		// makes; ties go to the first pair.
		bestA, bestB, bestScore, bestGain := -1, -1, 0.0, 0.0
		here := nodeCost(model, total, scalars, batch)
		for a := 0; a < k; a++ {
			for b := a + 1; b < k; b++ {
				w := weight[a*k+b]
				if w == 0 {
					continue
				}
				d := dims[a] + dims[b]
				gain := here - nodeCost(model, total, scalars-w, batch) - nodeCost(model, d, w, batch)
				if score := gain / float64(d); score > bestScore {
					bestA, bestB, bestScore, bestGain = a, b, score, gain
				}
			}
		}
		if bestA < 0 {
			break
		}

		// Join b into slot a; the constraints the join now wholly contains
		// go with it.
		r.joins = append(r.joins, [2]int{bestA, bestB})
		saved += bestGain
		dims[bestA] += dims[bestB]
		keep := pend[:0]
		for _, p := range pend {
			cl := touched[p.off : p.off+p.n]
			hasA, atB := false, -1
			for i, c := range cl {
				hasA = hasA || c == int32(bestA)
				if c == int32(bestB) {
					atB = i
				}
			}
			switch {
			case atB >= 0 && hasA: // b is now a, which is there already
				cl[atB] = cl[p.n-1]
				p.n--
			case atB >= 0:
				cl[atB] = int32(bestA)
			}
			if p.n == 1 {
				r.movedAt[p.con] = int32(len(r.joins))
				scalars -= int(p.dim)
				continue
			}
			keep = append(keep, p)
		}
		pend = keep
	}
	if len(r.joins) > 0 {
		plans = append(plans, r)
	}
	return plans, saved
}

// apply carries the plan out on its node: one new node per join, the
// surviving clusters as the node's children, and the node's constraints
// handed out in the order Build assigned them — which is the order Build
// would assign them to the regrouped tree.
func (r regrouping) apply() {
	n := r.node
	clusters := append([]*Node(nil), n.Children...)
	joins := make([]*Node, len(r.joins))
	counts := make([]int, len(r.joins)+1)
	for _, at := range r.movedAt {
		counts[at]++
	}
	for i, j := range r.joins {
		m := &Node{
			Name:     fmt.Sprintf("%s.g%d", n.Name, i+1),
			Children: []*Node{clusters[j[0]], clusters[j[1]]},
			Cons:     make([]constraint.Constraint, 0, counts[i+1]),
			parent:   n,
		}
		m.Children[0].parent, m.Children[1].parent = m, m
		clusters[j[0]], clusters[j[1]] = m, nil
		joins[i] = m
	}
	n.Children = n.Children[:0]
	for _, c := range clusters {
		if c != nil {
			n.Children = append(n.Children, c)
		}
	}
	stay := make([]constraint.Constraint, 0, counts[0])
	for i, c := range n.Cons {
		if at := r.movedAt[i]; at > 0 {
			joins[at-1].Cons = append(joins[at-1].Cons, c)
		} else {
			stay = append(stay, c)
		}
	}
	n.Cons = stay
}

// GroupLeaves builds a structure hierarchy bottom-up from user-specified
// leaf groups — the paper's §5 alternative to top-down decomposition, where
// the leaves are the natural building blocks (nucleotides, residues) that
// already encapsulate interaction locality. It is Regroup on the flat tree
// whose root holds every leaf: clusters are joined pairwise while a join
// lowers the model cost, so that as many constraints as possible become
// applicable low in the tree, and what survives becomes the root's
// children. Leaves the constraints do not connect stay siblings. If the
// leaves are not a tree Build accepts under these constraints, the flat
// grouping is returned for Build to report on.
func GroupLeaves(leaves []*molecule.Group, cons []constraint.Constraint, model WorkModel) *molecule.Group {
	switch len(leaves) {
	case 0:
		return &molecule.Group{Name: "empty"}
	case 1:
		return leaves[0]
	}
	flat := &molecule.Group{Name: "root", Children: leaves}
	root, err := Build(flat, cons)
	if err != nil || !root.Regroup(model, filter.DefaultBatchSize) {
		return flat
	}
	return root.Group()
}
