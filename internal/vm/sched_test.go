package vm

import (
	"fmt"
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
	root, err := hier.Build(p.Tree, &p.Constraints)
	if err != nil {
		t.Fatal(err)
	}
	return root, p
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
func validate(p *Plan, root *hier.Node, procs int) error {
	if p == nil {
		return nil
	}
	var check func(n *hier.Node, procs int) error
	check = func(n *hier.Node, procs int) error {
		groups := p.Groups[n]
		if groups == nil {
			// Sequential below this point; nothing further to check.
			return nil
		}
		seen := map[*hier.Node]bool{}
		total := 0
		for _, g := range groups {
			if g.Procs < 1 {
				return fmt.Errorf("node %q: group with %d processors", n.Name, g.Procs)
			}
			if len(g.Nodes) == 0 {
				return fmt.Errorf("node %q: empty child group", n.Name)
			}
			total += g.Procs
			for _, c := range g.Nodes {
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
			for _, c := range g.Nodes {
				if err := check(c, g.Procs); err != nil {
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
	plan := &Plan{Groups: map[*hier.Node][]Group{}}
	// Wrong processor total.
	plan.Groups[root] = []Group{{Nodes: []*hier.Node{left}, Procs: 1}, {Nodes: []*hier.Node{right}, Procs: 1}}
	if err := validate(plan, root, 4); err == nil {
		t.Fatal("accepted wrong processor total")
	}
	if err := validate(plan, root, 2); err != nil {
		t.Fatalf("rejected valid plan: %v", err)
	}
	// Missing child.
	plan.Groups[root] = []Group{{Nodes: []*hier.Node{left}, Procs: 2}}
	if err := validate(plan, root, 2); err == nil {
		t.Fatal("accepted plan not covering all children")
	}
	// Child in two groups.
	plan.Groups[root] = []Group{{Nodes: []*hier.Node{left, left}, Procs: 1}, {Nodes: []*hier.Node{right}, Procs: 1}}
	if err := validate(plan, root, 2); err == nil {
		t.Fatal("accepted duplicated child")
	}
	// Nil plan is always valid.
	if err := validate(nil, root, 99); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateWorkAccumulates(t *testing.T) {
	root, _ := twoArm(t, 50, 50)
	w := EstimateWork(root, workest.FlopModel{}, 16)
	if len(w.Own) != 3 || len(w.Subtree) != 3 {
		t.Fatalf("maps sized %d/%d", len(w.Own), len(w.Subtree))
	}
	sum := w.Own[root]
	for _, c := range root.Children {
		sum += w.Subtree[c]
	}
	if w.Subtree[root] != sum {
		t.Fatalf("subtree %g != own+children %g", w.Subtree[root], sum)
	}
	for _, c := range root.Children {
		if w.Own[c] <= 0 {
			t.Fatal("leaf with constraints has zero work")
		}
	}
}

func TestAssignBalancedSplit(t *testing.T) {
	root, _ := twoArm(t, 50, 50)
	w := EstimateWork(root, workest.FlopModel{}, 16)
	plan := Assign(root, 4, w)
	if err := validate(plan, root, 4); err != nil {
		t.Fatal(err)
	}
	groups := plan.Groups[root]
	if len(groups) != 2 {
		t.Fatalf("groups = %d", len(groups))
	}
	if groups[0].Procs != 2 || groups[1].Procs != 2 {
		t.Fatalf("equal arms got %d/%d processors", groups[0].Procs, groups[1].Procs)
	}
}

func TestAssignWorkProportional(t *testing.T) {
	// A 3:1 work imbalance with 4 processors should give the heavy arm 3.
	root, _ := twoArm(t, 150, 50)
	w := EstimateWork(root, workest.FlopModel{}, 16)
	plan := Assign(root, 4, w)
	if err := validate(plan, root, 4); err != nil {
		t.Fatal(err)
	}
	var heavy *hier.Node
	for _, c := range root.Children {
		if c.Name == "left" {
			heavy = c
		}
	}
	for _, g := range plan.Groups[root] {
		for _, n := range g.Nodes {
			if n == heavy && g.Procs != 3 {
				t.Fatalf("heavy arm got %d processors", g.Procs)
			}
		}
	}
}

func TestAssignOddProcessorsUneven(t *testing.T) {
	// With 3 processors and two equal subtrees, the split must be 2/1 —
	// the source of the paper's power-of-two dips.
	root, _ := twoArm(t, 50, 50)
	w := EstimateWork(root, workest.FlopModel{}, 16)
	plan := Assign(root, 3, w)
	if err := validate(plan, root, 3); err != nil {
		t.Fatal(err)
	}
	groups := plan.Groups[root]
	sizes := []int{groups[0].Procs, groups[1].Procs}
	if !(sizes[0] == 1 && sizes[1] == 2 || sizes[0] == 2 && sizes[1] == 1) {
		t.Fatalf("split = %v", sizes)
	}
}

func TestAssignSingleProcessorNoPlan(t *testing.T) {
	root, _ := twoArm(t, 50, 50)
	w := EstimateWork(root, workest.FlopModel{}, 16)
	plan := Assign(root, 1, w)
	if len(plan.Groups) != 0 {
		t.Fatal("single processor should have a sequential (empty) plan")
	}
}

func TestAssignDeepTreeValid(t *testing.T) {
	h := molecule.Helix(8)
	root, err := hier.Build(h.Tree, &h.Constraints)
	if err != nil {
		t.Fatal(err)
	}
	w := EstimateWork(root, workest.FlopModel{}, 16)
	for np := 1; np <= 32; np++ {
		plan := Assign(root, np, w)
		if err := validate(plan, root, np); err != nil {
			t.Fatalf("NP=%d: %v", np, err)
		}
	}
}

func TestAssignHighBranchingValid(t *testing.T) {
	r := molecule.Ribo30SWith(molecule.Ribo30SConfig{Helices: 10, Coils: 10, Proteins: 5, Seed: 3})
	root, err := hier.Build(r.Tree, &r.Constraints)
	if err != nil {
		t.Fatal(err)
	}
	w := EstimateWork(root, workest.FlopModel{}, 16)
	for _, np := range []int{2, 3, 5, 7, 16, 32} {
		plan := Assign(root, np, w)
		if err := validate(plan, root, np); err != nil {
			t.Fatalf("NP=%d: %v", np, err)
		}
	}
}

func TestAssignMoreProcsThanChildren(t *testing.T) {
	root, _ := twoArm(t, 50, 50)
	w := EstimateWork(root, workest.FlopModel{}, 16)
	plan := Assign(root, 32, w)
	if err := validate(plan, root, 32); err != nil {
		t.Fatal(err)
	}
	groups := plan.Groups[root]
	total := 0
	for _, g := range groups {
		total += g.Procs
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
	w := EstimateWork(root, workest.FlopModel{}, 16)
	plan := Assign(root, 4, w)
	if err := validate(plan, root, 4); err != nil {
		t.Fatal(err)
	}
}

func TestImbalance(t *testing.T) {
	root, _ := twoArm(t, 50, 50)
	w := EstimateWork(root, workest.FlopModel{}, 16)

	// Even split: perfectly balanced.
	even := Assign(root, 4, w)
	worst, _ := imbalance(root, even, w)
	if worst > 1.01 {
		t.Fatalf("even split imbalance %g", worst)
	}
	// Odd split over equal arms: the 1-proc group does twice the
	// per-processor work of the 2-proc group → ratio 4/3.
	odd := Assign(root, 3, w)
	worst, byNode := imbalance(root, odd, w)
	if worst < 1.2 || worst > 1.5 {
		t.Fatalf("odd split imbalance %g", worst)
	}
	if len(byNode) == 0 {
		t.Fatal("no per-node ratios")
	}
	// Nil plan: trivially balanced.
	if w, _ := imbalance(root, nil, w); w != 1 {
		t.Fatal("nil plan")
	}
}

func TestImbalancePredictsHelixDip(t *testing.T) {
	h := molecule.Helix(8)
	root, err := hier.Build(h.Tree, &h.Constraints)
	if err != nil {
		t.Fatal(err)
	}
	w := EstimateWork(root, workest.FlopModel{}, 16)
	worst6, _ := imbalance(root, Assign(root, 6, w), w)
	worst8, _ := imbalance(root, Assign(root, 8, w), w)
	if worst6 <= worst8 {
		t.Fatalf("NP=6 imbalance %g not above NP=8 %g", worst6, worst8)
	}
}
