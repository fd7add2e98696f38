package hier

import (
	"math/rand"
	"slices"
	"testing"

	"phmse/internal/constraint"
	"phmse/internal/geom"
	"phmse/internal/workest"
)

// Rebind takes a prepared tree — regrouped or not — to another value set
// of its topology, leaving the tree Build and Prepare would make from the
// new set; and it refuses, with an
// error, a set that moves, reorders, adds, drops or re-dimensions a
// constraint, and an unprepared tree.
func TestRebindChecksEveryConstraint(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := wideProblem(rng, 3+rng.Intn(10))
		root := mustBuild(t, p)
		if err := root.Rebind(p.Constraints); err == nil {
			t.Fatalf("seed %d: an unprepared tree was rebound", seed)
		}
		root = mustBuild(t, p)
		root.Regroup(workest.FlopModel{}, 16)
		if err := root.Prepare(16); err != nil {
			t.Fatal(err)
		}

		revalued := make([]constraint.Constraint, len(p.Constraints))
		for i, c := range p.Constraints {
			switch c := c.(type) {
			case link:
				c.z, c.sigma = c.z.Add(geom.Vec3{0.1, 0, 0}), c.sigma*2
				revalued[i] = c
			case constraint.Position:
				c.Sigma *= 2
				revalued[i] = c
			}
		}
		if err := root.Rebind(revalued); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want, err := Build(root.Group(), revalued)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameTree(root, want); err != nil {
			t.Fatalf("seed %d: rebound tree against a fresh build: %v", seed, err)
		}
		// Two constraints of one node, on different atoms, trade places.
		i, j := -1, -1
		root.Walk(func(n *Node) {
			if i < 0 && len(n.Cons) >= 2 && !slices.Equal(n.Cons[0].Atoms(), n.Cons[1].Atoms()) {
				i, j = slices.Index(revalued, n.Cons[0]), slices.Index(revalued, n.Cons[1])
			}
		})
		l := slices.IndexFunc(revalued, func(c constraint.Constraint) bool { _, ok := c.(link); return ok })
		edits := map[string][]constraint.Constraint{
			"one fewer": revalued[:len(revalued)-1],
			"one more":  append(append([]constraint.Constraint(nil), revalued...), revalued[0]),
			"swapped":   edited(revalued, func(c []constraint.Constraint) { c[i], c[j] = c[j], c[i] }),
			"reversed": edited(revalued, func(c []constraint.Constraint) {
				r := c[l].(link)
				r.i, r.j = r.j, r.i
				c[l] = r
			}),
			"narrowed": edited(revalued, func(c []constraint.Constraint) {
				r := c[l].(link)
				c[l] = constraint.Distance{I: r.i, J: r.j, Target: 1, Sigma: 1}
			}),
		}
		if i < 0 {
			delete(edits, "swapped")
		}
		for name, cons := range edits {
			if err := root.Rebind(cons); err == nil {
				t.Fatalf("seed %d: %s: rebound", seed, name)
			}
			root = mustBuild(t, p) // a refused tree is discarded
			root.Regroup(workest.FlopModel{}, 16)
			if err := root.Prepare(16); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func edited(cons []constraint.Constraint, f func([]constraint.Constraint)) []constraint.Constraint {
	out := append([]constraint.Constraint(nil), cons...)
	f(out)
	return out
}
