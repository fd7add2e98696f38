package molecule

import (
	"math"
	"testing"

	"phmse/internal/geom"
)

func TestGroupAtomsUnion(t *testing.T) {
	g := &Group{
		Children: []*Group{
			{AtomIDs: []int{3, 1}},
			{Children: []*Group{{AtomIDs: []int{2}}, {AtomIDs: []int{5, 4}}}},
		},
	}
	atoms := g.Atoms()
	want := []int{1, 2, 3, 4, 5}
	if len(atoms) != len(want) {
		t.Fatalf("atoms = %v", atoms)
	}
	for i := range want {
		if atoms[i] != want[i] {
			t.Fatalf("atoms = %v (not sorted union)", atoms)
		}
	}
	if len(g.Leaves()) != 3 {
		t.Fatalf("leaves = %d", len(g.Leaves()))
	}
	if g.Count() != 5 {
		t.Fatalf("count = %d", g.Count())
	}
	if g.Depth() != 3 {
		t.Fatalf("depth = %d", g.Depth())
	}
}

func TestBaseTypeComplement(t *testing.T) {
	pairs := map[BaseType]BaseType{BaseA: BaseU, BaseU: BaseA, BaseC: BaseG, BaseG: BaseC}
	for b, want := range pairs {
		if b.Complement() != want {
			t.Fatalf("%v complement = %v", b, b.Complement())
		}
		if b.Complement().Complement() != b {
			t.Fatal("complement not involutive")
		}
	}
	if BaseA.String() != "A" || BaseU.String() != "U" {
		t.Fatal("String")
	}
}

func TestHelixAtomCountsMatchPaper(t *testing.T) {
	// Table 1: 43 atoms per base pair.
	for _, bp := range []int{1, 2, 4, 8} {
		h := Helix(bp)
		if len(h.Atoms) != 43*bp {
			t.Fatalf("%d bp: %d atoms, want %d", bp, len(h.Atoms), 43*bp)
		}
	}
}

func TestHelixConstraintCountsTrackPaper(t *testing.T) {
	// The generated constraint counts should be within 15% of Table 1.
	paper := map[int]int{1: 675, 2: 1574, 4: 3294, 8: 6810}
	for bp, want := range paper {
		got := Helix(bp).ScalarDim()
		if ratio := float64(got) / float64(want); ratio < 0.75 || ratio > 1.15 {
			t.Fatalf("%d bp: %d constraints vs paper %d (ratio %.2f)", bp, got, want, ratio)
		}
	}
}

func TestHelixConstraintsConsistentWithGeometry(t *testing.T) {
	h := Helix(2)
	pos := h.TruePositions()
	// Every distance constraint's target equals the reference geometry.
	for _, c := range h.Constraints.Rows() {
		d, ok := c.Distance()
		if !ok {
			t.Fatalf("unexpected constraint type %T", c)
		}
		actual := geom.Dist(pos[d.I], pos[d.J])
		if math.Abs(actual-d.Target) > 1e-12 {
			t.Fatalf("constraint target %g, geometry %g", d.Target, actual)
		}
		if d.Sigma <= 0 {
			t.Fatal("non-positive sigma")
		}
	}
}

func TestHelixTreeShape(t *testing.T) {
	h := Helix(4)
	// 4 bp: helix nodes 3 (root + 2), bp nodes 4, base nodes 8, leaves 16.
	if got := h.Tree.Count(); got != 31 {
		t.Fatalf("tree nodes = %d, want 31", got)
	}
	if d := h.Tree.Depth(); d != 5 {
		t.Fatalf("depth = %d, want 5", d)
	}
	leaves := h.Tree.Leaves()
	if len(leaves) != 16 {
		t.Fatalf("leaves = %d, want 16", len(leaves))
	}
	// Leaves partition the atoms.
	seen := map[int]bool{}
	for _, l := range leaves {
		for _, a := range l.AtomIDs {
			if seen[a] {
				t.Fatalf("atom %d in two leaves", a)
			}
			seen[a] = true
		}
	}
	if len(seen) != len(h.Atoms) {
		t.Fatalf("leaves cover %d of %d atoms", len(seen), len(h.Atoms))
	}
}

func TestHelixConstraintLocality(t *testing.T) {
	// Most constraints must be assignable below the root: the premise of
	// the hierarchical decomposition (§3).
	h := Helix(8)
	root := h.Tree
	if len(root.Children) != 2 {
		t.Fatal("root should have two children")
	}
	inChild := make([]map[int]bool, 2)
	for i, c := range root.Children {
		inChild[i] = map[int]bool{}
		for _, a := range c.Atoms() {
			inChild[i][a] = true
		}
	}
	atRoot := 0
	for _, c := range h.Constraints.Rows() {
		fits := false
		for i := range inChild {
			all := true
			for _, a := range c.Atoms[:c.Kind.Atoms()] {
				if !inChild[i][a] {
					all = false
					break
				}
			}
			if all {
				fits = true
				break
			}
		}
		if !fits {
			atRoot++
		}
	}
	frac := float64(atRoot) / float64(h.Constraints.Len())
	if frac > 0.1 {
		t.Fatalf("%.1f%% of constraints stuck at root; want < 10%%", 100*frac)
	}
}

func TestHelixRejectsZeroLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 0 bp")
		}
	}()
	Helix(0)
}

func TestRibo30SScale(t *testing.T) {
	r := Ribo30S(42)
	if n := len(r.Atoms); n < 800 || n > 1000 {
		t.Fatalf("atoms = %d, want ~900", n)
	}
	if c := r.ScalarDim(); c < 5000 || c > 9000 {
		t.Fatalf("scalar constraints = %d, want ~6500", c)
	}
	// High branching factor at the root (paper: avoids power-of-2 dips).
	if len(r.Tree.Children) < 8 {
		t.Fatalf("root branching = %d, want ≥ 8", len(r.Tree.Children))
	}
	// Leaves cover all atoms exactly once.
	seen := map[int]bool{}
	for _, l := range r.Tree.Leaves() {
		for _, a := range l.AtomIDs {
			if seen[a] {
				t.Fatalf("atom %d in two leaves", a)
			}
			seen[a] = true
		}
	}
	if len(seen) != len(r.Atoms) {
		t.Fatalf("leaves cover %d of %d atoms", len(seen), len(r.Atoms))
	}
}

func TestRibo30SDeterministic(t *testing.T) {
	a := Ribo30S(7)
	b := Ribo30S(7)
	if len(a.Atoms) != len(b.Atoms) || a.Constraints.Len() != b.Constraints.Len() {
		t.Fatal("same seed produced different problems")
	}
	for i := range a.Atoms {
		if a.Atoms[i].Pos != b.Atoms[i].Pos {
			t.Fatal("same seed produced different geometry")
		}
	}
	c := Ribo30S(8)
	same := true
	for i := range a.Atoms {
		if i < len(c.Atoms) && a.Atoms[i].Pos != c.Atoms[i].Pos {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical geometry")
	}
}

func TestRibo30SSmallConfig(t *testing.T) {
	r := Ribo30SWith(Ribo30SConfig{Helices: 4, Coils: 4, Proteins: 3, Seed: 1})
	if len(r.Atoms) != 4*8+4*5+3 {
		t.Fatalf("atoms = %d", len(r.Atoms))
	}
	// Position anchors present for each protein.
	anchors := 0
	for _, c := range r.Constraints.Rows() {
		if _, ok := c.Position(); ok {
			anchors++
		}
	}
	if anchors != 3 {
		t.Fatalf("anchors = %d", anchors)
	}
}

func TestWithAnchors(t *testing.T) {
	h := Helix(1)
	a := WithAnchors(h, 2, 0.1)
	if a.Constraints.Len() != h.Constraints.Len()+2 {
		t.Fatal("anchor count")
	}
	p0, ok := a.Constraints.Row(0).Position()
	if !ok || p0.Target != h.Atoms[0].Pos {
		t.Fatal("anchor 0 wrong")
	}
	// Clamp k to atom count.
	b := WithAnchors(h, 10_000, 0.1)
	if b.Constraints.Len() != h.Constraints.Len()+len(h.Atoms) {
		t.Fatal("k clamp")
	}
}

func TestPerturbedAndRMSD(t *testing.T) {
	h := Helix(1)
	pos := Perturbed(h, 0.5, 3)
	if len(pos) != len(h.Atoms) {
		t.Fatal("length")
	}
	r := RMSD(pos, h.TruePositions())
	// Expected RMSD ≈ 0.5·√3 ≈ 0.87 with wide tolerance.
	if r < 0.4 || r > 1.5 {
		t.Fatalf("perturbation RMSD = %g", r)
	}
	if RMSD(pos, pos) != 0 {
		t.Fatal("self RMSD")
	}
	if RMSD(nil, nil) != 0 {
		t.Fatal("empty RMSD")
	}
	// Deterministic for a fixed seed.
	again := Perturbed(h, 0.5, 3)
	if RMSD(pos, again) != 0 {
		t.Fatal("Perturbed not deterministic")
	}
}

func TestProblemString(t *testing.T) {
	h := Helix(1)
	if h.String() == "" || h.Tree.Name == "" {
		t.Fatal("naming")
	}
}

func TestWithExclusions(t *testing.T) {
	h := Helix(1)
	aug := WithExclusions(h, 2.0, 0.5, 10)
	added := aug.Constraints.Len() - h.Constraints.Len()
	if added <= 0 {
		t.Fatal("no exclusions added")
	}
	// Added constraints are lower-only bounds on unobserved pairs.
	seen := map[[2]int]bool{}
	for _, c := range h.Constraints.Rows() {
		d, ok := c.Distance()
		if !ok {
			continue
		}
		i, j := d.I, d.J
		if i > j {
			i, j = j, i
		}
		seen[[2]int{i, j}] = true
	}
	for _, c := range aug.Constraints.Rows()[h.Constraints.Len():] {
		b, ok := c.Bound()
		if !ok {
			t.Fatalf("added constraint has type %T", c)
		}
		if b.Lower != 2.0 || b.Upper != 0 {
			t.Fatalf("bound %+v", b)
		}
		i, j := b.I, b.J
		if i > j {
			i, j = j, i
		}
		if seen[[2]int{i, j}] {
			t.Fatal("exclusion added on an observed pair")
		}
	}
	// Stride 10 keeps roughly a tenth of candidate pairs.
	all := WithExclusions(h, 2.0, 0.5, 1)
	allAdded := all.Constraints.Len() - h.Constraints.Len()
	if added > allAdded/8 || added < allAdded/14 {
		t.Fatalf("stride sampling off: %d of %d", added, allAdded)
	}
}

func TestClashes(t *testing.T) {
	pos := []geom.Vec3{{0, 0, 0}, {0.5, 0, 0}, {10, 0, 0}}
	if got := Clashes(pos, 1.0); got != 1 {
		t.Fatalf("clashes = %d", got)
	}
	if got := Clashes(pos, 0.1); got != 0 {
		t.Fatalf("clashes = %d", got)
	}
}
