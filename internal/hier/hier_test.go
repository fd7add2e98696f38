package hier

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"phmse/internal/constraint"
	"phmse/internal/filter"
	"phmse/internal/geom"
	"phmse/internal/molecule"
	"phmse/internal/par"
	"phmse/internal/trace"
	"phmse/internal/workest"
)

// chainProblem builds a linear chain of atoms with distance constraints and
// an anchor, grouped into a binary tree over two halves.
func chainProblem(n int) *molecule.Problem {
	p := &molecule.Problem{Name: "chain"}
	for i := 0; i < n; i++ {
		p.Atoms = append(p.Atoms, molecule.Atom{Pos: geom.Vec3{float64(i) * 2, 0.3 * float64(i%3), 0}})
	}
	for i := 0; i+1 < n; i++ {
		d := geom.Dist(p.Atoms[i].Pos, p.Atoms[i+1].Pos)
		p.Constraints = append(p.Constraints, constraint.Distance{I: i, J: i + 1, Target: d, Sigma: 0.05})
	}
	for i := 0; i+2 < n; i++ {
		d := geom.Dist(p.Atoms[i].Pos, p.Atoms[i+2].Pos)
		p.Constraints = append(p.Constraints, constraint.Distance{I: i, J: i + 2, Target: d, Sigma: 0.1})
	}
	p.Constraints = append(p.Constraints,
		constraint.Position{I: 0, Target: p.Atoms[0].Pos, Sigma: 0.01},
		constraint.Position{I: n - 1, Target: p.Atoms[n-1].Pos, Sigma: 0.01},
	)
	p.Tree = RecursiveBisection(n, n/4)
	return p
}

func TestBuildAssignsConstraintsToLowestNode(t *testing.T) {
	h := molecule.Helix(2)
	root, err := Build(h.Tree, h.Constraints)
	if err != nil {
		t.Fatal(err)
	}
	// Every constraint lands somewhere; total preserved.
	if got := root.ScalarConstraints(); got != h.ScalarDim() {
		t.Fatalf("assigned %d of %d scalar constraints", got, h.ScalarDim())
	}
	// Each node's constraints reference only subtree atoms, and no child
	// could hold them alone (lowest-node property).
	root.Walk(func(n *Node) {
		inSub := map[int]bool{}
		for _, a := range n.Atoms {
			inSub[a] = true
		}
		childSets := make([]map[int]bool, len(n.Children))
		for i, c := range n.Children {
			childSets[i] = map[int]bool{}
			for _, a := range c.Atoms {
				childSets[i][a] = true
			}
		}
		for _, c := range n.Cons {
			for _, a := range c.Atoms() {
				if !inSub[a] {
					t.Fatalf("node %q: constraint atom %d outside subtree", n.Name, a)
				}
			}
			for i := range childSets {
				all := true
				for _, a := range c.Atoms() {
					if !childSets[i][a] {
						all = false
						break
					}
				}
				if all {
					t.Fatalf("node %q: constraint fits entirely in child %q", n.Name, n.Children[i].Name)
				}
			}
		}
	})
}

func TestBuildRejectsForeignAtoms(t *testing.T) {
	g := &molecule.Group{Name: "g", AtomIDs: []int{0, 1}}
	_, err := Build(g, []constraint.Constraint{constraint.Distance{I: 0, J: 7, Target: 1, Sigma: 1}})
	if err == nil {
		t.Fatal("no error for out-of-tree atom")
	}
}

func TestBuildRejectsDuplicateAtoms(t *testing.T) {
	g := &molecule.Group{
		Children: []*molecule.Group{
			{Name: "a", AtomIDs: []int{0, 1}},
			{Name: "b", AtomIDs: []int{1, 2}},
		},
	}
	if _, err := Build(g, nil); err == nil {
		t.Fatal("no error for atom in two leaves")
	}
}

func TestNodeAccessors(t *testing.T) {
	h := molecule.Helix(1)
	root, err := Build(h.Tree, h.Constraints)
	if err != nil {
		t.Fatal(err)
	}
	if root.IsLeaf() || root.Parent() != nil {
		t.Fatal("root properties")
	}
	if root.StateDim() != 3*43 {
		t.Fatalf("StateDim = %d", root.StateDim())
	}
	if root.Count() != 7 { // bp + 2 bases + 4 leaves
		t.Fatalf("Count = %d", root.Count())
	}
	if root.MaxDepth() != 3 {
		t.Fatalf("MaxDepth = %d", root.MaxDepth())
	}
	leaf := root.Children[0].Children[0]
	if !leaf.IsLeaf() || leaf.Parent() == nil {
		t.Fatal("leaf properties")
	}
	if !strings.Contains(root.Dump(), "bp0") {
		t.Fatal("Dump missing nodes")
	}
	if root.String() == "" || leaf.String() == "" {
		t.Fatal("String")
	}
}

// postOrderCons collects the constraints in the order the hierarchical
// schedule applies them (children before parents).
func postOrderCons(n *Node) []constraint.Constraint {
	var out []constraint.Constraint
	for _, c := range n.Children {
		out = append(out, postOrderCons(c)...)
	}
	return append(out, n.Cons...)
}

// For purely linear measurement models the hierarchical organization is
// exactly the flat computation with the zero blocks skipped (§3), so the
// results must agree to round-off regardless of ordering.
func TestHierarchicalMatchesFlatLinearExact(t *testing.T) {
	p := &molecule.Problem{Name: "linear"}
	for i := 0; i < 8; i++ {
		p.Atoms = append(p.Atoms, molecule.Atom{Pos: geom.Vec3{float64(i), 0, 0}})
		p.Constraints = append(p.Constraints,
			constraint.Position{I: i, Target: geom.Vec3{float64(i), 0.5, 0}, Sigma: 0.5 + 0.1*float64(i)})
	}
	p.Tree = RecursiveBisection(8, 2)
	root, err := Build(p.Tree, p.Constraints)
	if err != nil {
		t.Fatal(err)
	}
	if err := root.Prepare(6); err != nil {
		t.Fatal(err)
	}
	init := p.TruePositions()
	hierState, err := UpdatePass(root, init, Options{Control: filter.Control{BatchSize: 6, InitVar: 100}})
	if err != nil {
		t.Fatal(err)
	}
	flat := filter.NewState(init, 100)
	batches, err := filter.MakeBatches(p.Constraints, func(a int) int { return a }, 6)
	if err != nil {
		t.Fatal(err)
	}
	u := &filter.Updater{}
	if _, err := u.ApplyAll(flat, batches); err != nil {
		t.Fatal(err)
	}
	for i, a := range root.Atoms {
		if hierState.Pos(i).Sub(flat.Pos(a)).Norm() > 1e-8 {
			t.Fatalf("atom %d: hierarchical %v vs flat %v", a, hierState.Pos(i), flat.Pos(a))
		}
	}
	// Covariances agree block-wise (compare atom variances).
	for i, a := range root.Atoms {
		if math.Abs(hierState.Variance(i)-flat.Variance(a)) > 1e-8 {
			t.Fatalf("atom %d variance: %g vs %g", a, hierState.Variance(i), flat.Variance(a))
		}
	}
}

// With nonlinear constraints the two organizations perform the same
// computation when the flat pass applies constraints in the hierarchical
// (locality) order; small differences remain only from batch-boundary
// relinearization.
func TestHierarchicalMatchesFlatOnePass(t *testing.T) {
	p := chainProblem(12)
	root, err := Build(p.Tree, p.Constraints)
	if err != nil {
		t.Fatal(err)
	}
	init := molecule.Perturbed(p, 0.05, 5)

	if err := root.Prepare(8); err != nil {
		t.Fatal(err)
	}
	hierState, err := UpdatePass(root, init, Options{Control: filter.Control{BatchSize: 8, InitVar: 100}})
	if err != nil {
		t.Fatal(err)
	}

	flat := filter.NewState(init, 100)
	batches, err := filter.MakeBatches(postOrderCons(root), func(a int) int { return a }, 8)
	if err != nil {
		t.Fatal(err)
	}
	u := &filter.Updater{}
	if _, err := u.ApplyAll(flat, batches); err != nil {
		t.Fatal(err)
	}

	for i, a := range root.Atoms {
		hp := hierState.Pos(i)
		fp := flat.Pos(a)
		if hp.Sub(fp).Norm() > 5e-3 {
			t.Fatalf("atom %d: hierarchical %v vs flat %v", a, hp, fp)
		}
	}
}

func TestHierarchicalSolveConverges(t *testing.T) {
	p := chainProblem(16)
	root, err := Build(p.Tree, p.Constraints)
	if err != nil {
		t.Fatal(err)
	}
	init := molecule.Perturbed(p, 0.3, 11)
	state, res, err := Solve(root, init, Options{Control: filter.Control{Tol: 1e-4, MaxCycles: 200}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	// Solution satisfies the distance data.
	for _, c := range p.Constraints {
		d, ok := c.(constraint.Distance)
		if !ok {
			continue
		}
		li := indexOf(root.Atoms, d.I)
		lj := indexOf(root.Atoms, d.J)
		got := geom.Dist(state.Pos(li), state.Pos(lj))
		if math.Abs(got-d.Target) > 0.05 {
			t.Fatalf("constraint %v: solved distance %g", d, got)
		}
	}
}

// A negative MaxStep disables the trust-region clamp in the hierarchical
// driver exactly as it does in one UpdatePass: the solve differs from the
// default-radius one, and equals a hand-rolled loop of passes under the
// same options bit for bit.
func TestHierMaxStepNegativeDisablesClamp(t *testing.T) {
	p := molecule.WithAnchors(molecule.Protein(24, 7), 4, 0.05)
	init := molecule.Perturbed(p, 0.5, 3)
	const cycles = 5
	solve := func(maxStep float64) *filter.State {
		root, err := Build(p.Tree, p.Constraints)
		if err != nil {
			t.Fatal(err)
		}
		state, res, err := Solve(root, init, Options{Control: filter.Control{
			MaxStep: maxStep, MaxCycles: cycles, Tol: 1e-12, DivergeAfter: -1}})
		if err != nil || res.Cycles != cycles {
			t.Fatalf("MaxStep %g: %d cycles, err %v", maxStep, res.Cycles, err)
		}
		return state
	}
	free, clamped := solve(-1), solve(0)

	root, err := Build(p.Tree, p.Constraints)
	if err != nil {
		t.Fatal(err)
	}
	if err := root.Prepare(filter.DefaultBatchSize); err != nil {
		t.Fatal(err)
	}
	positions := append([]geom.Vec3(nil), init...)
	var byHand *filter.State
	for c := 0; c < cycles; c++ {
		if byHand, err = UpdatePass(root, positions, Options{Control: filter.Control{MaxStep: -1}}); err != nil {
			t.Fatal(err)
		}
		for i, a := range root.Atoms {
			positions[a] = byHand.Pos(i)
		}
	}
	same := true
	for i := range free.X {
		if free.X[i] != byHand.X[i] {
			t.Fatalf("coordinate %d: Solve %v, loop of UpdatePass %v under the same MaxStep: -1", i, free.X[i], byHand.X[i])
		}
		same = same && free.X[i] == clamped.X[i]
	}
	if same {
		t.Fatal("MaxStep: -1 solved bit-identically to MaxStep: 0: the clamp was not disabled")
	}
}

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}

// Parallel subtree execution must produce the same estimate as sequential
// execution (the groups touch disjoint data).
func TestParallelPlanMatchesSequential(t *testing.T) {
	p := chainProblem(16)
	buildRoot := func() *Node {
		root, err := Build(p.Tree, p.Constraints)
		if err != nil {
			t.Fatal(err)
		}
		if err := root.Prepare(8); err != nil {
			t.Fatal(err)
		}
		return root
	}
	init := molecule.Perturbed(p, 0.2, 3)

	seqRoot := buildRoot()
	seqState, err := UpdatePass(seqRoot, init, Options{Control: filter.Control{BatchSize: 8, InitVar: 100}})
	if err != nil {
		t.Fatal(err)
	}

	parRoot := buildRoot()
	plan := NewExecPlan()
	var fill func(n *Node, procs int)
	fill = func(n *Node, procs int) {
		if len(n.Children) != 2 || procs < 2 {
			return
		}
		half := procs / 2
		plan.Groups[n] = []ChildGroup{
			{Nodes: []*Node{n.Children[0]}, Procs: half},
			{Nodes: []*Node{n.Children[1]}, Procs: procs - half},
		}
		fill(n.Children[0], half)
		fill(n.Children[1], procs-half)
	}
	fill(parRoot, 4)
	team := par.NewTeam(4)
	if err := plan.Validate(parRoot, 4); err != nil {
		t.Fatal(err)
	}
	parState, err := UpdatePass(parRoot, init, Options{Control: filter.Control{BatchSize: 8, InitVar: 100, Team: team}, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	for d := range seqState.X {
		if math.Abs(seqState.X[d]-parState.X[d]) > 1e-9 {
			t.Fatalf("x[%d]: %g vs %g", d, seqState.X[d], parState.X[d])
		}
	}
	if !seqState.C.Equal(parState.C, 1e-9) {
		t.Fatal("covariances differ")
	}
}

func TestPlanValidation(t *testing.T) {
	p := chainProblem(8)
	root, err := Build(p.Tree, p.Constraints)
	if err != nil {
		t.Fatal(err)
	}
	plan := NewExecPlan()
	// Wrong processor total.
	plan.Groups[root] = []ChildGroup{
		{Nodes: []*Node{root.Children[0]}, Procs: 1},
		{Nodes: []*Node{root.Children[1]}, Procs: 1},
	}
	if err := plan.Validate(root, 4); err == nil {
		t.Fatal("accepted wrong processor total")
	}
	if err := plan.Validate(root, 2); err != nil {
		t.Fatalf("rejected valid plan: %v", err)
	}
	// Missing child.
	plan.Groups[root] = []ChildGroup{{Nodes: []*Node{root.Children[0]}, Procs: 2}}
	if err := plan.Validate(root, 2); err == nil {
		t.Fatal("accepted plan not covering all children")
	}
	// Child in two groups.
	plan.Groups[root] = []ChildGroup{
		{Nodes: []*Node{root.Children[0], root.Children[0]}, Procs: 1},
		{Nodes: []*Node{root.Children[1]}, Procs: 1},
	}
	if err := plan.Validate(root, 2); err == nil {
		t.Fatal("accepted duplicated child")
	}
	// Nil plan is always valid.
	var nilPlan *ExecPlan
	if err := nilPlan.Validate(root, 99); err != nil {
		t.Fatal(err)
	}
}

func TestSolveRecordsTraceAndRespectsGates(t *testing.T) {
	p := chainProblem(8)
	// Add a violated upper bound between the ends.
	d := geom.Dist(p.Atoms[0].Pos, p.Atoms[7].Pos)
	p.Constraints = append(p.Constraints,
		constraint.DistanceBound{I: 0, J: 7, Upper: d * 0.99, Sigma: 0.5})
	root, err := Build(p.Tree, p.Constraints)
	if err != nil {
		t.Fatal(err)
	}
	var rec trace.Collector
	_, res, err := Solve(root, p.TruePositions(), Options{Control: filter.Control{MaxCycles: 4, Rec: &rec}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Fatal("no cycles ran")
	}
	if rec.Flops()[trace.MatMat] <= 0 {
		t.Fatal("no m-m flops recorded")
	}
}

func TestRecursiveBisection(t *testing.T) {
	g := RecursiveBisection(16, 4)
	if len(g.Atoms()) != 16 {
		t.Fatalf("atoms = %d", len(g.Atoms()))
	}
	for _, l := range g.Leaves() {
		if len(l.AtomIDs) > 4 || len(l.AtomIDs) == 0 {
			t.Fatalf("leaf size %d", len(l.AtomIDs))
		}
	}
	if g.Depth() != 3 {
		t.Fatalf("depth = %d", g.Depth())
	}
	// Degenerate leaf size.
	tiny := RecursiveBisection(3, 0)
	if len(tiny.Leaves()) != 3 {
		t.Fatal("leafSize 0 should clamp to 1")
	}
}

func TestGraphPartitionBeatsNaiveOnShuffledChain(t *testing.T) {
	// A chain whose atom indices are interleaved between the two halves:
	// index bisection cuts every edge; the graph partitioner should
	// recover locality.
	const n = 32
	perm := make([]int, n)
	for i := range perm {
		// Even indices first half of the chain, odd indices second half.
		if i%2 == 0 {
			perm[i] = i / 2
		} else {
			perm[i] = n/2 + i/2
		}
	}
	posOf := make([]int, n) // chain position → atom index
	for atom, chainPos := range perm {
		posOf[chainPos] = atom
	}
	var cons []constraint.Constraint
	for cpos := 0; cpos+1 < n; cpos++ {
		cons = append(cons, constraint.Distance{I: posOf[cpos], J: posOf[cpos+1], Target: 1, Sigma: 1})
	}
	naive := RecursiveBisection(n, 8)
	smart := GraphPartition(n, cons, 8)
	if got := len(smart.Atoms()); got != n {
		t.Fatalf("partition lost atoms: %d", got)
	}
	naiveCut := CutSize(naive, cons)
	smartCut := CutSize(smart, cons)
	if smartCut >= naiveCut {
		t.Fatalf("graph partition cut %d not better than naive %d", smartCut, naiveCut)
	}
	if smartCut > 3 {
		t.Fatalf("chain should split with ≤3 cut edges, got %d", smartCut)
	}
}

func TestGraphPartitionBalanced(t *testing.T) {
	h := molecule.Helix(2)
	g := GraphPartition(len(h.Atoms), h.Constraints, 20)
	if len(g.Atoms()) != len(h.Atoms) {
		t.Fatal("lost atoms")
	}
	if len(g.Children) != 2 {
		t.Fatal("not a bisection")
	}
	a := len(g.Children[0].Atoms())
	b := len(g.Children[1].Atoms())
	if a+b != len(h.Atoms) {
		t.Fatal("children don't partition")
	}
	ratio := float64(a) / float64(a+b)
	if ratio < 0.3 || ratio > 0.7 {
		t.Fatalf("unbalanced split %d/%d", a, b)
	}
}

func TestGraphPartitionSolvable(t *testing.T) {
	// The automatic decomposition must produce a tree the solver accepts
	// and converges on.
	p := chainProblem(12)
	auto := GraphPartition(len(p.Atoms), p.Constraints, 4)
	root, err := Build(auto, p.Constraints)
	if err != nil {
		t.Fatal(err)
	}
	_, res, err := Solve(root, molecule.Perturbed(p, 0.2, 9), Options{Control: filter.Control{Tol: 1e-4, MaxCycles: 200}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("no convergence: %+v", res)
	}
}

func TestGroupLeavesChain(t *testing.T) {
	// Four leaf fragments of a chain: bottom-up grouping should join
	// neighbors first, since they share the most constraints.
	p := chainProblem(16)
	var leaves []*molecule.Group
	for k := 0; k < 4; k++ {
		g := &molecule.Group{Name: string(rune('a' + k))}
		for a := 4 * k; a < 4*(k+1); a++ {
			g.AtomIDs = append(g.AtomIDs, a)
		}
		leaves = append(leaves, g)
	}
	tree := GroupLeaves(leaves, p.Constraints, workest.FlopModel{})
	if len(tree.Atoms()) != 16 {
		t.Fatalf("atoms = %d", len(tree.Atoms()))
	}
	if got := len(tree.Leaves()); got != 4 {
		t.Fatalf("leaves = %d", got)
	}
	// The tree must be solvable and its cut at the root small: the chain
	// only crosses the final merge at one junction (≤ ~6 scalar dims).
	root, err := Build(tree, p.Constraints)
	if err != nil {
		t.Fatal(err)
	}
	rootDims := 0
	for _, c := range root.Cons {
		rootDims += c.Dim()
	}
	if rootDims > 8 {
		t.Fatalf("bottom-up grouping left %d scalar constraints at the root", rootDims)
	}
	_, res, err := Solve(root, molecule.Perturbed(p, 0.2, 2), Options{Control: filter.Control{Tol: 1e-4, MaxCycles: 200}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("no convergence: %+v", res)
	}
}

func TestGroupLeavesEdgeCases(t *testing.T) {
	if g := GroupLeaves(nil, nil, workest.FlopModel{}); g == nil || len(g.Atoms()) != 0 {
		t.Fatal("empty leaves")
	}
	single := &molecule.Group{Name: "only", AtomIDs: []int{0, 1}}
	if g := GroupLeaves([]*molecule.Group{single}, nil, workest.FlopModel{}); g != single {
		t.Fatal("single leaf should be returned unchanged")
	}
	// Disconnected leaves (no shared constraints) still merge into one tree.
	a := &molecule.Group{Name: "a", AtomIDs: []int{0}}
	b := &molecule.Group{Name: "b", AtomIDs: []int{1}}
	c := &molecule.Group{Name: "c", AtomIDs: []int{2}}
	g := GroupLeaves([]*molecule.Group{a, b, c}, nil, workest.FlopModel{})
	if len(g.Atoms()) != 3 || len(g.Leaves()) != 3 {
		t.Fatal("disconnected merge failed")
	}
}

func TestGroupLeavesPrefersConnectedPairs(t *testing.T) {
	// Two tightly connected leaves and one isolated one: the first merge
	// must join the connected pair.
	a := &molecule.Group{Name: "a", AtomIDs: []int{0, 1}}
	b := &molecule.Group{Name: "b", AtomIDs: []int{2, 3}}
	c := &molecule.Group{Name: "c", AtomIDs: []int{4, 5}}
	cons := []constraint.Constraint{
		constraint.Distance{I: 1, J: 2, Target: 1, Sigma: 1},
		constraint.Distance{I: 0, J: 3, Target: 1, Sigma: 1},
	}
	g := GroupLeaves([]*molecule.Group{a, c, b}, cons, workest.FlopModel{})
	// Find the first merge (depth-2 node containing a and b).
	var firstMerge *molecule.Group
	var find func(n *molecule.Group)
	find = func(n *molecule.Group) {
		if len(n.Children) == 2 && len(n.Children[0].Children) == 0 && len(n.Children[1].Children) == 0 {
			firstMerge = n
		}
		for _, ch := range n.Children {
			find(ch)
		}
	}
	find(g)
	if firstMerge == nil {
		t.Fatal("no leaf-pair merge found")
	}
	names := firstMerge.Children[0].Name + firstMerge.Children[1].Name
	if names != "ab" && names != "ba" {
		t.Fatalf("first merge joined %q", names)
	}
}

// Property: for purely linear constraint sets and arbitrary random
// decompositions, the hierarchical computation equals the flat one — the
// §3 equivalence, tested over random shapes.
func TestHierarchicalFlatEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nAtoms := 4 + rng.Intn(12)
		p := &molecule.Problem{Name: "prop"}
		for i := 0; i < nAtoms; i++ {
			p.Atoms = append(p.Atoms, molecule.Atom{Pos: geom.Vec3{
				rng.NormFloat64() * 5, rng.NormFloat64() * 5, rng.NormFloat64() * 5}})
		}
		for i := 0; i < nAtoms; i++ {
			// One to three absolute observations per atom.
			for k := 0; k <= rng.Intn(3); k++ {
				p.Constraints = append(p.Constraints, constraint.Position{
					I:      i,
					Target: p.Atoms[i].Pos.Add(geom.Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}),
					Sigma:  0.2 + rng.Float64(),
				})
			}
		}
		leaf := 1 + rng.Intn(5)
		root, err := Build(RecursiveBisection(nAtoms, leaf), p.Constraints)
		if err != nil {
			return false
		}
		if err := root.Prepare(1 + rng.Intn(20)); err != nil {
			return false
		}
		init := p.TruePositions()
		hierState, err := UpdatePass(root, init, Options{Control: filter.Control{InitVar: 10, MaxStep: -1}})
		if err != nil {
			return false
		}
		flat := filter.NewState(init, 10)
		batches, err := filter.MakeBatches(p.Constraints, func(a int) int { return a }, 16)
		if err != nil {
			return false
		}
		u := &filter.Updater{}
		if _, err := u.ApplyAll(flat, batches); err != nil {
			return false
		}
		for i, a := range root.Atoms {
			if hierState.Pos(i).Sub(flat.Pos(a)).Norm() > 1e-8 {
				return false
			}
			if math.Abs(hierState.Variance(i)-flat.Variance(a)) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestComputeStats(t *testing.T) {
	h := molecule.Helix(4)
	root, err := Build(h.Tree, h.Constraints)
	if err != nil {
		t.Fatal(err)
	}
	st := ComputeStats(root)
	if st.Nodes != root.Count() || st.Depth != root.MaxDepth() {
		t.Fatalf("stats %+v disagree with tree", st)
	}
	if st.Scalars != root.ScalarConstraints() {
		t.Fatalf("scalars %d vs %d", st.Scalars, root.ScalarConstraints())
	}
	if len(st.Levels) != st.Depth {
		t.Fatalf("levels = %d, depth = %d", len(st.Levels), st.Depth)
	}
	// Level sums must reconstruct the totals.
	nodes, scalars := 0, 0
	workSum := 0.0
	for _, l := range st.Levels {
		nodes += l.Nodes
		scalars += l.Scalars
		workSum += l.WorkFrac
	}
	if nodes != st.Nodes || scalars != st.Scalars {
		t.Fatalf("level sums %d/%d vs totals %d/%d", nodes, scalars, st.Nodes, st.Scalars)
	}
	if workSum < 0.999 || workSum > 1.001 {
		t.Fatalf("work fractions sum to %g", workSum)
	}
	// The helix is the paper's optimistic case: most constraints deep.
	if st.DeepFrac < 0.5 {
		t.Fatalf("deep fraction %g too small for the helix", st.DeepFrac)
	}
	if st.Format() == "" {
		t.Fatal("Format")
	}
}
