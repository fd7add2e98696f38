package hier

import (
	"math/rand"
	"slices"
	"testing"

	"phmse/internal/constraint"
	"phmse/internal/geom"
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
		if err := root.Rebind(&p.Constraints); err == nil {
			t.Fatalf("seed %d: an unprepared tree was rebound", seed)
		}
		root = mustBuild(t, p)
		root.Regroup(16)
		if err := root.Prepare(16); err != nil {
			t.Fatal(err)
		}

		revalued := edited(&p.Constraints, func(c []constraint.Row) {
			for i := range c {
				switch c[i].Kind {
				case constraint.KindDisplacement:
					c[i].Val = geom.Vec3(c[i].Val).Add(geom.Vec3{0.1, 0, 0})
					c[i].Sigma *= 2
				case constraint.KindPosition:
					c[i].Sigma *= 2
				}
			}
		})
		if err := root.Rebind(&revalued); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want, err := Build(root.Group(), &revalued)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameTree(root, want); err != nil {
			t.Fatalf("seed %d: rebound tree against a fresh build: %v", seed, err)
		}
		// Two constraints of one node, on different atoms, trade places.
		i, j := -1, -1
		root.Walk(func(n *Node) {
			if i < 0 && len(n.Rows) >= 2 && !slices.Equal(revalued.Atoms(int(n.Rows[0])), revalued.Atoms(int(n.Rows[1]))) {
				i, j = int(n.Rows[0]), int(n.Rows[1])
			}
		})
		l := -1
		for r := range revalued.Len() {
			if l < 0 && revalued.Kind(r) == constraint.KindDisplacement {
				l = r
			}
		}
		all := rowsOf(&revalued)
		edits := map[string]constraint.Set{
			"one fewer": constraint.Of(all[:len(all)-1]...),
			"one more":  constraint.Of(append(all, all[0])...),
			"swapped":   edited(&revalued, func(c []constraint.Row) { c[i], c[j] = c[j], c[i] }),
			"reversed": edited(&revalued, func(c []constraint.Row) {
				c[l].Atoms[0], c[l].Atoms[1] = c[l].Atoms[1], c[l].Atoms[0]
			}),
			"narrowed": edited(&revalued, func(c []constraint.Row) {
				c[l] = constraint.Distance{I: c[l].Atoms[0], J: c[l].Atoms[1], Target: 1, Sigma: 1}.Row()
			}),
		}
		if i < 0 {
			delete(edits, "swapped")
		}
		for name, cons := range edits {
			if err := root.Rebind(&cons); err == nil {
				t.Fatalf("seed %d: %s: rebound", seed, name)
			}
			root = mustBuild(t, p) // a refused tree is discarded
			root.Regroup(16)
			if err := root.Prepare(16); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// rowsOf returns every row of a set as a record, in order.
func rowsOf(s *constraint.Set) []constraint.Row {
	out := make([]constraint.Row, s.Len())
	for r := range out {
		out[r] = s.Row(r)
	}
	return out
}

// edited returns the set of f's edit of s's rows.
func edited(s *constraint.Set, f func([]constraint.Row)) constraint.Set {
	rows := rowsOf(s)
	f(rows)
	return constraint.Of(rows...)
}
