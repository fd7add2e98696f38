package vm

import (
	"fmt"
	"slices"
	"testing"

	"phmse/internal/constraint"
	"phmse/internal/geom"
	"phmse/internal/hier"
	"phmse/internal/molecule"
	"phmse/internal/workest"
)

// twoArm builds a tree with two subtrees whose work differs by the given
// ratio (in constraint count).
func twoArm(t *testing.T, leftCons, rightCons int) (*hier.Node, *molecule.Problem) {
	t.Helper()
	p := &molecule.Problem{Name: "twoArm"}
	for i := 0; i < 20; i++ {
		p.Atoms = append(p.Atoms, molecule.Atom{Pos: geom.Vec3{float64(i), 0, 0}})
	}
	addCons := func(lo, hi, n int) {
		for k := 0; k < n; k++ {
			i := lo + k%(hi-lo-1)
			p.Constraints.Add(constraint.Distance{I: i, J: i + 1, Target: 1, Sigma: 1}.Row())
		}
	}
	addCons(0, 10, leftCons)
	addCons(10, 20, rightCons)
	p.Tree = &molecule.Group{
		Name: "root",
		Children: []*molecule.Group{
			{Name: "left", AtomIDs: rangeInts(0, 10)},
			{Name: "right", AtomIDs: rangeInts(10, 20)},
		},
	}
	return prepared(t, p.Tree, &p.Constraints), p
}

// prepared builds the tree and prepares it at batch dimension 16, which
// scores its subtrees' work.
func prepared(t *testing.T, g *molecule.Group, cons *constraint.Set) *hier.Node {
	t.Helper()
	root, err := hier.Build(g, cons)
	if err != nil {
		t.Fatal(err)
	}
	if err := root.Prepare(16); err != nil {
		t.Fatal(err)
	}
	return root
}

func rangeInts(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// validate checks that every plan entry partitions the node's children and
// that processor counts are positive and sum to totals consistent with a
// team of size procs at the root.
func validate(p plan, root *hier.Node, procs int) error {
	if p == nil {
		return nil
	}
	var check func(n *hier.Node, procs int) error
	check = func(n *hier.Node, procs int) error {
		groups := p[n]
		if groups == nil {
			// Sequential below this point; nothing further to check.
			return nil
		}
		seen := map[*hier.Node]bool{}
		total := 0
		for _, g := range groups {
			if g.procs < 1 {
				return fmt.Errorf("node %q: group with %d processors", n.Name, g.procs)
			}
			if len(g.nodes) == 0 {
				return fmt.Errorf("node %q: empty child group", n.Name)
			}
			total += g.procs
			for _, c := range g.nodes {
				if c.Parent() != n {
					return fmt.Errorf("node %q: group contains non-child %q", n.Name, c.Name)
				}
				if seen[c] {
					return fmt.Errorf("node %q: child %q in two groups", n.Name, c.Name)
				}
				seen[c] = true
			}
		}
		if len(seen) != len(n.Children) {
			return fmt.Errorf("node %q: plan covers %d of %d children", n.Name, len(seen), len(n.Children))
		}
		if total != procs {
			return fmt.Errorf("node %q: groups use %d processors, team has %d", n.Name, total, procs)
		}
		for _, g := range groups {
			for _, c := range g.nodes {
				if err := check(c, g.procs); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return check(root, procs)
}

// The checks the plan tests lean on reject what they should.
func TestPlanValidation(t *testing.T) {
	root, _ := twoArm(t, 50, 50)
	left, right := root.Children[0], root.Children[1]
	plan := plan{}
	// Wrong processor total.
	plan[root] = []group{{nodes: []*hier.Node{left}, procs: 1}, {nodes: []*hier.Node{right}, procs: 1}}
	if err := validate(plan, root, 4); err == nil {
		t.Fatal("accepted wrong processor total")
	}
	if err := validate(plan, root, 2); err != nil {
		t.Fatalf("rejected valid plan: %v", err)
	}
	// Missing child.
	plan[root] = []group{{nodes: []*hier.Node{left}, procs: 2}}
	if err := validate(plan, root, 2); err == nil {
		t.Fatal("accepted plan not covering all children")
	}
	// Child in two groups.
	plan[root] = []group{{nodes: []*hier.Node{left, left}, procs: 1}, {nodes: []*hier.Node{right}, procs: 1}}
	if err := validate(plan, root, 2); err == nil {
		t.Fatal("accepted duplicated child")
	}
	// Nil plan is always valid.
	if err := validate(nil, root, 99); err != nil {
		t.Fatal(err)
	}
}

// The plan divides processors by the subtree work Prepare scores: each
// node's own flop-model work plus its children's subtrees.
func TestEstimateWorkAccumulates(t *testing.T) {
	root, _ := twoArm(t, 50, 50)
	var fm workest.FlopModel
	own := fm.NodeWork(root.StateDim(), root.Scalars(), 16)
	for _, c := range root.Children {
		if c.Work() != fm.NodeWork(c.StateDim(), c.Scalars(), 16) {
			t.Fatalf("leaf %q: work %g is not its own", c.Name, c.Work())
		}
		if c.Work() <= 0 {
			t.Fatal("leaf with constraints has zero work")
		}
		own += c.Work()
	}
	if root.Work() != own {
		t.Fatalf("subtree %g != own+children %g", root.Work(), own)
	}
}

func TestAssignBalancedSplit(t *testing.T) {
	root, _ := twoArm(t, 50, 50)
	plan := assign(root, 4)
	if err := validate(plan, root, 4); err != nil {
		t.Fatal(err)
	}
	groups := plan[root]
	if len(groups) != 2 {
		t.Fatalf("groups = %d", len(groups))
	}
	if groups[0].procs != 2 || groups[1].procs != 2 {
		t.Fatalf("equal arms got %d/%d processors", groups[0].procs, groups[1].procs)
	}
}

func TestAssignWorkProportional(t *testing.T) {
	// A 3:1 work imbalance with 4 processors should give the heavy arm 3.
	root, _ := twoArm(t, 150, 50)
	plan := assign(root, 4)
	if err := validate(plan, root, 4); err != nil {
		t.Fatal(err)
	}
	var heavy *hier.Node
	for _, c := range root.Children {
		if c.Name == "left" {
			heavy = c
		}
	}
	for _, g := range plan[root] {
		for _, n := range g.nodes {
			if n == heavy && g.procs != 3 {
				t.Fatalf("heavy arm got %d processors", g.procs)
			}
		}
	}
}

func TestAssignOddProcessorsUneven(t *testing.T) {
	// With 3 processors and two equal subtrees, the split must be 2/1 —
	// the source of the paper's power-of-two dips.
	root, _ := twoArm(t, 50, 50)
	plan := assign(root, 3)
	if err := validate(plan, root, 3); err != nil {
		t.Fatal(err)
	}
	groups := plan[root]
	sizes := []int{groups[0].procs, groups[1].procs}
	if !(sizes[0] == 1 && sizes[1] == 2 || sizes[0] == 2 && sizes[1] == 1) {
		t.Fatalf("split = %v", sizes)
	}
}

func TestAssignSingleProcessorNoPlan(t *testing.T) {
	root, _ := twoArm(t, 50, 50)
	if plan := assign(root, 1); len(plan) != 0 {
		t.Fatal("single processor should have a sequential (empty) plan")
	}
}

func TestAssignDeepTreeValid(t *testing.T) {
	h := molecule.Helix(8)
	root := prepared(t, h.Tree, &h.Constraints)
	for np := 1; np <= 32; np++ {
		plan := assign(root, np)
		if err := validate(plan, root, np); err != nil {
			t.Fatalf("NP=%d: %v", np, err)
		}
	}
}

func TestAssignHighBranchingValid(t *testing.T) {
	r := molecule.Ribo30SWith(molecule.Ribo30SConfig{Helices: 10, Coils: 10, Proteins: 5, Seed: 3})
	root := prepared(t, r.Tree, &r.Constraints)
	for _, np := range []int{2, 3, 5, 7, 16, 32} {
		plan := assign(root, np)
		if err := validate(plan, root, np); err != nil {
			t.Fatalf("NP=%d: %v", np, err)
		}
	}
}

func TestAssignMoreProcsThanChildren(t *testing.T) {
	root, _ := twoArm(t, 50, 50)
	plan := assign(root, 32)
	if err := validate(plan, root, 32); err != nil {
		t.Fatal(err)
	}
	groups := plan[root]
	total := 0
	for _, g := range groups {
		total += g.procs
	}
	if total != 32 {
		t.Fatalf("processors lost: %d", total)
	}
}

func TestZeroWorkTree(t *testing.T) {
	// A tree with no constraints must still yield a valid plan.
	p := &molecule.Problem{}
	for i := 0; i < 4; i++ {
		p.Atoms = append(p.Atoms, molecule.Atom{Pos: geom.Vec3{float64(i), 0, 0}})
	}
	p.Tree = &molecule.Group{
		Children: []*molecule.Group{
			{Name: "a", AtomIDs: []int{0, 1}},
			{Name: "b", AtomIDs: []int{2, 3}},
		},
	}
	root, err := hier.Build(p.Tree, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan := assign(root, 4)
	if err := validate(plan, root, 4); err != nil {
		t.Fatal(err)
	}
}

// imbalance predicts the load imbalance of a plan from the subtree work:
// for every node whose children run as parallel groups, the ratio of the
// slowest group's per-processor work to the mean. 1.0 is perfect balance;
// the helix's 2-equal-subtrees shape at three processors yields 4/3. The
// worst ratio over the tree correlates with the wall-clock dips of the
// static scheme (Tables 3 and 5).
func imbalance(p plan) (worst float64, byNode map[*hier.Node]float64) {
	worst = 1
	byNode = map[*hier.Node]float64{}
	for node, groups := range p {
		if len(groups) < 2 {
			continue
		}
		perProc := make([]float64, len(groups))
		sum := 0.0
		for i, g := range groups {
			total := 0.0
			for _, c := range g.nodes {
				total += c.Work()
			}
			perProc[i] = total / float64(g.procs)
			sum += perProc[i]
		}
		mean := sum / float64(len(groups))
		if mean <= 0 {
			continue
		}
		ratio := slices.Max(perProc) / mean
		byNode[node] = ratio
		worst = max(worst, ratio)
	}
	return worst, byNode
}

func TestImbalance(t *testing.T) {
	root, _ := twoArm(t, 50, 50)

	// Even split: perfectly balanced.
	worst, _ := imbalance(assign(root, 4))
	if worst > 1.01 {
		t.Fatalf("even split imbalance %g", worst)
	}
	// Odd split over equal arms: the 1-proc group does twice the
	// per-processor work of the 2-proc group → ratio 4/3.
	worst, byNode := imbalance(assign(root, 3))
	if worst < 1.2 || worst > 1.5 {
		t.Fatalf("odd split imbalance %g", worst)
	}
	if len(byNode) == 0 {
		t.Fatal("no per-node ratios")
	}
	// Nil plan: trivially balanced.
	if w, _ := imbalance(nil); w != 1 {
		t.Fatal("nil plan")
	}
}

func TestImbalancePredictsHelixDip(t *testing.T) {
	h := molecule.Helix(8)
	root := prepared(t, h.Tree, &h.Constraints)
	worst6, _ := imbalance(assign(root, 6))
	worst8, _ := imbalance(assign(root, 8))
	if worst6 <= worst8 {
		t.Fatalf("NP=6 imbalance %g not above NP=8 %g", worst6, worst8)
	}
}
