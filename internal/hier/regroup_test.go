package hier

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"phmse/internal/constraint"
	"phmse/internal/faultinject"
	"phmse/internal/filter"
	"phmse/internal/geom"
	"phmse/internal/molecule"
	"phmse/internal/par"
	"phmse/internal/workest"
)

// link observes the displacement between two atoms, z = x_j − x_i: linear,
// with a constant Jacobian, and across two atoms — so unlike a Position row
// it fills a cross block of the covariance whenever its atoms sit in
// different children.
type link struct {
	i, j  int
	z     geom.Vec3
	sigma float64
}

func (l link) Atoms() []int { return []int{l.i, l.j} }
func (l link) Dim() int     { return 3 }

func (l link) Observed(z, sigma2 []float64) {
	for c := 0; c < 3; c++ {
		z[c], sigma2[c] = l.z[c], l.sigma*l.sigma
	}
}

func (l link) Eval(pos []geom.Vec3, h []float64, jac [][]float64) {
	for c := 0; c < 3; c++ {
		h[c] = pos[1][c] - pos[0][c]
		clear(jac[c])
		jac[c][c], jac[c][3+c] = -1, 1
	}
}

// wideProblem draws a tree whose root fans out into fan children — leaves
// of one to four atoms, some of them split once more into three leaves, and
// sometimes an atom the root owns directly — with an anchor on every third
// atom, links inside children, and links across children concentrated on a
// few pairs of them, which is what gives regrouping something to find.
func wideProblem(rng *rand.Rand, fan int) *molecule.Problem {
	p := &molecule.Problem{Name: "wide", Tree: &molecule.Group{Name: "root"}}
	atom := func() int {
		p.Atoms = append(p.Atoms, molecule.Atom{Pos: geom.Vec3{rng.NormFloat64() * 5, rng.NormFloat64() * 5, rng.NormFloat64() * 5}})
		return len(p.Atoms) - 1
	}
	leaf := func(name string) *molecule.Group {
		g := &molecule.Group{Name: name}
		for k := 0; k <= rng.Intn(4); k++ {
			g.AtomIDs = append(g.AtomIDs, atom())
		}
		return g
	}
	for ci := 0; ci < fan; ci++ {
		name := fmt.Sprintf("c%d", ci)
		if rng.Intn(4) == 0 {
			g := &molecule.Group{Name: name}
			for k := 0; k < 3; k++ {
				g.Children = append(g.Children, leaf(fmt.Sprintf("%s.%d", name, k)))
			}
			p.Tree.Children = append(p.Tree.Children, g)
		} else {
			p.Tree.Children = append(p.Tree.Children, leaf(name))
		}
	}
	if rng.Intn(3) == 0 {
		p.Tree.AtomIDs = []int{atom()}
	}
	observe := func(i, j int) {
		d := p.Atoms[j].Pos.Sub(p.Atoms[i].Pos)
		p.Constraints = append(p.Constraints, link{i: i, j: j, sigma: 0.2 + rng.Float64(),
			z: d.Add(geom.Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}.Scale(0.3))})
	}
	for i := range p.Atoms {
		if i%3 == 0 {
			p.Constraints = append(p.Constraints, constraint.Position{I: i, Target: p.Atoms[i].Pos, Sigma: 0.5 + rng.Float64()})
		}
	}
	children := p.Tree.Children
	for _, c := range children {
		if atoms := c.Atoms(); len(atoms) > 1 {
			observe(atoms[0], atoms[len(atoms)-1])
		}
	}
	for pair := 0; pair < fan; pair++ {
		a, b := rng.Intn(len(children)), rng.Intn(len(children))
		if a == b {
			continue
		}
		aa, ba := children[a].Atoms(), children[b].Atoms()
		for k := 0; k <= rng.Intn(6); k++ {
			observe(aa[rng.Intn(len(aa))], ba[rng.Intn(len(ba))])
		}
	}
	if len(p.Tree.AtomIDs) > 0 {
		observe(p.Tree.AtomIDs[0], 0)
	}
	return p
}

// treeCost is what Regroup minimises: every node's model work, a node
// with any scalars charged the sweep floor at least.
func treeCost(root *Node, batch int) float64 {
	total := 0.0
	root.Walk(func(n *Node) { total += nodeCost(workest.FlopModel{}, n.StateDim(), n.scalars(), batch) })
	return total
}

func mustBuild(t *testing.T, p *molecule.Problem) *Node {
	t.Helper()
	root, err := Build(p.Tree, p.Constraints)
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// sameTree reports the first difference between two trees in shape, names,
// state order or the constraints each node owns, in order.
func sameTree(a, b *Node) error {
	if a.Name != b.Name || len(a.Children) != len(b.Children) {
		return fmt.Errorf("%q with %d children vs %q with %d", a.Name, len(a.Children), b.Name, len(b.Children))
	}
	if !reflect.DeepEqual(a.Atoms, b.Atoms) || !reflect.DeepEqual(a.Direct, b.Direct) {
		return fmt.Errorf("%q: atoms %v / %v vs %v / %v", a.Name, a.Atoms, a.Direct, b.Atoms, b.Direct)
	}
	if len(a.Cons) != len(b.Cons) {
		return fmt.Errorf("%q: %d constraints vs %d", a.Name, len(a.Cons), len(b.Cons))
	}
	for i := range a.Cons {
		if a.Cons[i] != b.Cons[i] {
			return fmt.Errorf("%q: constraint %d is %v vs %v", a.Name, i, a.Cons[i], b.Cons[i])
		}
	}
	for i := range a.Children {
		if err := sameTree(a.Children[i], b.Children[i]); err != nil {
			return err
		}
	}
	return nil
}

// The structural contract of Regroup over seeded random wide trees: the
// regrouped tree holds every atom once and every constraint once, each at
// the lowest node that contains it; every node's atoms are a run of the
// root's order; the inserted names are the same every time; the model cost
// did not rise; and the grouping the tree converts to builds the same tree
// again, which is what lets a plan cache carry it.
func TestRegroupInvariants(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := wideProblem(rng, 3+rng.Intn(10))
		given := mustBuild(t, p)
		root := mustBuild(t, p)
		changed := root.Regroup(workest.FlopModel{}, 16)
		if before, after := treeCost(given, 16), treeCost(root, 16); after > before || changed != (after < before) {
			t.Fatalf("seed %d: model cost %g → %g, changed = %v", seed, before, after, changed)
		}

		atoms := append([]int(nil), root.Atoms...)
		sort.Ints(atoms)
		for i, a := range atoms {
			if a != i {
				t.Fatalf("seed %d: root atoms %v are not every atom once", seed, root.Atoms)
			}
		}
		count := map[constraint.Constraint]int{}
		for _, c := range p.Constraints {
			count[c]++
		}
		names := map[string]bool{}
		root.Walk(func(n *Node) {
			if names[n.Name] {
				t.Fatalf("seed %d: two nodes named %q", seed, n.Name)
			}
			names[n.Name] = true
			if !reflect.DeepEqual(n.Atoms, root.Atoms[n.lo:n.lo+len(n.Atoms)]) {
				t.Fatalf("seed %d: node %q is not a run of the root's order", seed, n.Name)
			}
			for _, c := range n.Children {
				if c.Parent() != n {
					t.Fatalf("seed %d: %q has parent %v, want %q", seed, c.Name, c.Parent(), n.Name)
				}
			}
			for _, c := range n.Cons {
				count[c]--
				for _, ch := range n.Children {
					inside := true
					for _, a := range c.Atoms() {
						inside = inside && ch.slot(a) >= 0
					}
					if inside {
						t.Fatalf("seed %d: constraint %v at %q fits in child %q", seed, c, n.Name, ch.Name)
					}
				}
				for _, a := range c.Atoms() {
					if n.slot(a) < 0 {
						t.Fatalf("seed %d: constraint %v at %q reaches outside it", seed, c, n.Name)
					}
				}
			}
		})
		for c, k := range count {
			if k != 0 {
				t.Fatalf("seed %d: constraint %v assigned %d times too few", seed, c, k)
			}
		}

		again := mustBuild(t, p)
		again.Regroup(workest.FlopModel{}, 16)
		if err := sameTree(root, again); err != nil {
			t.Fatalf("seed %d: regrouping twice: %v", seed, err)
		}
		rebuilt, err := Build(root.Group(), p.Constraints)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameTree(root, rebuilt); err != nil {
			t.Fatalf("seed %d: Build(root.Group()): %v", seed, err)
		}
	}
}

// A tree with no node wider than two is returned as it was.
func TestRegroupLeavesBinaryTreesAlone(t *testing.T) {
	h := molecule.Helix(4)
	chain := chainProblem(16)
	for _, p := range []*molecule.Problem{h, chain,
		{Tree: GraphPartition(len(h.Atoms), h.Constraints, 8), Constraints: h.Constraints}} {
		root, ref := mustBuild(t, p), mustBuild(t, p)
		if root.Regroup(workest.FlopModel{}, 16) {
			t.Fatalf("%s: Regroup reports a change to a binary tree", p.Name)
		}
		if err := sameTree(root, ref); err != nil {
			t.Fatal(err)
		}
	}
}

// bestGrouping is the brute force Regroup's greedy is held against: the
// lowest tree cost over every sequence of pairwise joins of a flat node's
// k children. A cluster is the bit set of the children it holds; a
// constraint (the children it touches, its scalars) lands on the smallest
// join that contains it, on the parent otherwise.
func bestGrouping(dims []int, cons [][2]int, parentDim, batch int) float64 {
	cost := func(joins []int) float64 {
		at := make([]int, len(joins)+1) // scalars per join, the parent's last
		for _, c := range cons {
			where, size := len(joins), 1<<30
			for ji, j := range joins {
				if c[0]&^j == 0 && j < size { // the joins holding c are nested, so the smallest set is the smallest number
					where, size = ji, j
				}
			}
			at[where] += c[1]
		}
		total := nodeCost(workest.FlopModel{}, parentDim, at[len(joins)], batch)
		for ji, j := range joins {
			d := 0
			for ci, cd := range dims {
				if j&(1<<ci) != 0 {
					d += cd
				}
			}
			total += nodeCost(workest.FlopModel{}, d, at[ji], batch)
		}
		return total
	}
	var rec func(clusters, joins []int) float64
	rec = func(clusters, joins []int) float64 {
		best := cost(joins)
		for a := 0; a < len(clusters); a++ {
			for b := a + 1; b < len(clusters); b++ {
				next := append([]int(nil), clusters...)
				next[a] |= next[b]
				next = append(next[:b], next[b+1:]...)
				best = math.Min(best, rec(next, append(joins[:len(joins):len(joins)], clusters[a]|clusters[b])))
			}
		}
		return best
	}
	clusters := make([]int, len(dims))
	for i := range clusters {
		clusters[i] = 1 << i
	}
	return rec(clusters, nil)
}

// Greedy pairwise joining is not optimal; on flat nodes small enough to
// enumerate (≤ 6 children) it stays within a factor 1.25 of the best
// sequence of joins there is, by the cost it minimises.
func TestRegroupNearBruteForceOptimum(t *testing.T) {
	worst := 1.0
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 3 + rng.Intn(4)
		p := &molecule.Problem{Tree: &molecule.Group{Name: "root"}}
		dims := make([]int, k)
		var first []int
		for ci := 0; ci < k; ci++ {
			g := &molecule.Group{Name: fmt.Sprintf("c%d", ci)}
			first = append(first, len(p.Atoms))
			for a := 0; a <= rng.Intn(30); a++ {
				g.AtomIDs = append(g.AtomIDs, len(p.Atoms))
				p.Atoms = append(p.Atoms, molecule.Atom{})
			}
			dims[ci] = 3 * len(g.AtomIDs)
			p.Tree.Children = append(p.Tree.Children, g)
		}
		var cons [][2]int
		for pair := 0; pair < 2*k; pair++ {
			a, b := rng.Intn(k), rng.Intn(k)
			if a == b {
				continue
			}
			n := 1 + rng.Intn(12)
			for i := 0; i < n; i++ {
				p.Constraints = append(p.Constraints, link{i: first[a], j: first[b], sigma: 1})
			}
			cons = append(cons, [2]int{1<<a | 1<<b, 3 * n})
		}
		root := mustBuild(t, p)
		root.Regroup(workest.FlopModel{}, 16)
		got, best := treeCost(root, 16), bestGrouping(dims, cons, 3*len(p.Atoms), 16)
		if got < best*(1-1e-12) {
			t.Fatalf("seed %d: greedy cost %g below the brute-force optimum %g", seed, got, best)
		}
		worst = math.Max(worst, got/best)
	}
	t.Logf("worst greedy/optimum over 60 seeds: %.3f", worst)
	if worst > 1.25 {
		t.Fatalf("greedy regrouping is %.3f× the brute-force optimum, want ≤ 1.25×", worst)
	}
}

// A root that owns no constraints gets nil from MakeBatches, which Solve
// used to read as "not prepared" and re-batch the whole tree on every call.
func TestSolveDoesNotPrepareAPreparedTree(t *testing.T) {
	p := &molecule.Problem{Tree: &molecule.Group{Name: "root", Children: []*molecule.Group{
		{Name: "a", AtomIDs: []int{0, 1}}, {Name: "b", AtomIDs: []int{2, 3}}}}}
	for i := 0; i < 4; i++ {
		p.Atoms = append(p.Atoms, molecule.Atom{Pos: geom.Vec3{float64(i), 0, 0}})
		p.Constraints = append(p.Constraints, constraint.Position{I: i, Target: geom.Vec3{float64(i), 1, 0}, Sigma: 1})
	}
	root := mustBuild(t, p)
	if len(root.Cons) != 0 {
		t.Fatal("the root was meant to own no constraints")
	}
	opt := Options{Control: filter.Control{MaxCycles: 2}}
	if _, _, err := Solve(root, p.TruePositions(), opt); err != nil {
		t.Fatal(err)
	}
	first := root.Children[0].Batches()[0]
	if _, _, err := Solve(root, p.TruePositions(), opt); err != nil {
		t.Fatal(err)
	}
	if root.Children[0].Batches()[0] != first {
		t.Fatal("the second Solve built the batches again")
	}
	// The batch size the tree was prepared for is part of "prepared".
	opt.BatchSize = 3
	if _, _, err := Solve(root, p.TruePositions(), opt); err != nil {
		t.Fatal(err)
	}
	if got := root.Children[0].Batches()[0]; got == first || got.Dim() != 3 {
		t.Fatal("Solve at another batch size kept the old batches")
	}
}

// The in-place pass keeps lower triangles only and mirrors once, at the
// root, whether or not the root applied anything: a root with no
// constraints of its own still returns an exactly symmetric covariance.
func TestConstraintFreeRootIsSymmetric(t *testing.T) {
	p := chainProblem(12)
	var inside []constraint.Constraint
	for _, c := range p.Constraints {
		if atoms := c.Atoms(); atoms[0] < 6 == (atoms[len(atoms)-1] < 6) {
			inside = append(inside, c)
		}
	}
	root, err := Build(p.Tree, inside)
	if err != nil {
		t.Fatal(err)
	}
	if err := root.Prepare(8); err != nil {
		t.Fatal(err)
	}
	if len(root.Cons) != 0 {
		t.Fatal("the root was meant to own no constraints")
	}
	s, err := UpdatePass(root, molecule.Perturbed(p, 0.1, 3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	coupled := false
	for i := 0; i < s.Dim(); i++ {
		for j := 0; j < i; j++ {
			if s.C.At(i, j) != s.C.At(j, i) {
				t.Fatalf("C[%d][%d] = %v but C[%d][%d] = %v", i, j, s.C.At(i, j), j, i, s.C.At(j, i))
			}
			coupled = coupled || s.C.At(i, j) != 0
		}
	}
	if !coupled {
		t.Fatal("no off-diagonal covariance at all: the test problem is too easy")
	}
}

// The guard's bound is carried up the tree instead of being rescanned at
// every node: a poisoned batch two levels down is still refused, with its
// node named, and the bound the root's pass ends with still covers the
// largest entry the state really holds.
func TestGuardBoundCarriedUpTheTree(t *testing.T) {
	p := chainProblem(16)
	root := mustBuild(t, p)
	if err := root.Prepare(4); err != nil {
		t.Fatal(err)
	}
	grandchild := root.Children[1].Children[0]
	if len(grandchild.Batches()) < 2 {
		t.Fatalf("grandchild %q has %d batches, want at least two", grandchild.Name, len(grandchild.Batches()))
	}
	faultinject.Set(&faultinject.Hooks{Poison: func(s faultinject.Site) bool {
		return s.Node == grandchild.Name && s.Batch == 1
	}})
	t.Cleanup(faultinject.Reset)

	opt := Options{Control: filter.Control{InitVar: 400}.WithDefaults()}
	opt.Diag.BeginCycle()
	s := filter.GetPooledState(root.StateDim())
	bound, err := updateNode(root, s, molecule.Perturbed(p, 0.2, 5), opt, par.NewTeam(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	snap := opt.Diag.Snapshot()
	if snap.Rollbacks != 1 || len(snap.Quarantined) != 1 || snap.Quarantined[0].Node != grandchild.Name || snap.Quarantined[0].Batch != 1 {
		t.Fatalf("diagnostics %+v, want one non-finite refusal at %q batch 1", snap, grandchild.Name)
	}
	truth := filter.ScanBound(s)
	if truth.Join(bound) != bound {
		t.Fatalf("carried bound %+v does not cover the state's true %+v", bound, truth)
	}
	if truth == (filter.Bound{}) {
		t.Fatal("the state scans to a zero bound: nothing was checked")
	}
	// The leaves' priors (InitVar 400) are the largest entries the pass ever
	// held; a bound that forgot the children would sit below them.
	if leafPrior := filter.ScanBound(filter.NewState(make([]geom.Vec3, 1), 400)); bound.Join(leafPrior) != bound {
		t.Fatalf("carried bound %+v lost the leaves' prior variance", bound)
	}
}

// splitPlan hands every node's processors to its children in two groups,
// first half and second half, all the way down.
func splitPlan(root *Node, procs int) *ExecPlan {
	plan := NewExecPlan()
	var fill func(n *Node, procs int)
	fill = func(n *Node, procs int) {
		if len(n.Children) < 2 || procs < 2 {
			return
		}
		mid, half := len(n.Children)/2, procs/2
		plan.Groups[n] = []ChildGroup{{Nodes: n.Children[:mid], Procs: half}, {Nodes: n.Children[mid:], Procs: procs - half}}
		for i, c := range n.Children {
			if i < mid {
				fill(c, half)
			} else {
				fill(c, procs-half)
			}
		}
	}
	fill(root, procs)
	return plan
}

// The §3 equivalence where it is not trivial: with linear constraints that
// couple atoms across children, one pass is exact whatever the order, so the
// flat organisation, the given wide tree, the regrouped tree, and either
// tree run by parallel processor groups must all produce the same estimate
// and the same per-atom variance to round-off.
func TestWideTreesMatchFlatWithCrossNodeCoupling(t *testing.T) {
	const tol = 1e-8
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := wideProblem(rng, 3+rng.Intn(10))
		init := molecule.Perturbed(p, 1, seed)
		ctl := filter.Control{InitVar: 25, MaxStep: -1, BatchSize: 1 + rng.Intn(20)}

		flat := filter.NewState(init, ctl.InitVar)
		batches, err := filter.MakeBatches(p.Constraints, func(a int) int { return a }, ctl.BatchSize)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := (&filter.Updater{}).ApplyAll(flat, batches); err != nil {
			t.Fatal(err)
		}

		given, regrouped := mustBuild(t, p), mustBuild(t, p)
		regrouped.Regroup(workest.FlopModel{}, ctl.BatchSize)
		filled := false
		for name, root := range map[string]*Node{"given": given, "regrouped": regrouped} {
			if err := root.Prepare(ctl.BatchSize); err != nil {
				t.Fatal(err)
			}
			for _, procs := range []int{1, 2, 3} {
				opt := Options{Control: ctl}
				if procs > 1 {
					opt.Team, opt.Plan = par.NewTeam(procs), splitPlan(root, procs)
					if err := opt.Plan.Validate(root, procs); err != nil {
						t.Fatal(err)
					}
				}
				s, err := UpdatePass(root, init, opt)
				if err != nil {
					t.Fatal(err)
				}
				for i, a := range root.Atoms {
					if d := s.Pos(i).Sub(flat.Pos(a)).Norm(); d > tol {
						t.Fatalf("seed %d, %s tree, %d procs: atom %d is %g from the flat estimate", seed, name, procs, a, d)
					}
					if d := math.Abs(s.Variance(i) - flat.Variance(a)); d > tol {
						t.Fatalf("seed %d, %s tree, %d procs: atom %d variance differs by %g", seed, name, procs, a, d)
					}
				}
				if first := root.Children[0]; len(first.Atoms) < len(root.Atoms) {
					// The rows of everything after the first child against its
					// columns: cross blocks only the root's own pass can fill.
					k := 3 * len(first.Atoms)
					filled = filled || s.C.View(k, 0, s.Dim()-k, k).MaxAbs() > 0
				}
			}
		}
		if !filled {
			t.Fatalf("seed %d: no cross block between the root's children was ever filled", seed)
		}
	}
}
