package conform

import (
	"math"
	"testing"

	"phmse/internal/constraint"
	"phmse/internal/geom"
	"phmse/internal/molecule"
)

func TestSearchTriangle(t *testing.T) {
	cons := constraint.Of(
		constraint.Position{I: 0, Target: geom.Vec3{0, 0, 0}, Sigma: 1}.Row(),
		constraint.Distance{I: 0, J: 1, Target: 8, Sigma: 0.5}.Row(),
		constraint.Distance{I: 0, J: 2, Target: 8, Sigma: 0.5}.Row(),
		constraint.Distance{I: 1, J: 2, Target: 8, Sigma: 0.5}.Row())
	pos := Search(3, &cons, Options{Seed: 1, GridSpacing: 2})
	// Low resolution: each distance within a couple of lattice cells.
	for _, c := range cons.Rows() {
		d, ok := c.Distance()
		if !ok {
			continue
		}
		got := geom.Dist(pos[d.I], pos[d.J])
		if math.Abs(got-d.Target) > 5 {
			t.Fatalf("distance %d-%d = %g, want ≈ %g", d.I, d.J, got, d.Target)
		}
	}
}

func TestSearchImprovesScore(t *testing.T) {
	h := molecule.Helix(1)
	cons := h.Constraints
	n := len(h.Atoms)
	random := Search(n, &cons, Options{Seed: 7, Sweeps: 1}) // essentially the random start
	refined := Search(n, &cons, Options{Seed: 7})
	if score(refined, &cons) >= score(random, &cons) {
		t.Fatalf("annealing did not improve: %g vs %g", score(refined, &cons), score(random, &cons))
	}
}

func TestSearchDeterministic(t *testing.T) {
	cons := constraint.Of(
		constraint.Distance{I: 0, J: 1, Target: 5, Sigma: 1}.Row())
	a := Search(2, &cons, Options{Seed: 3})
	b := Search(2, &cons, Options{Seed: 3})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different result")
		}
	}
}

func TestSearchSnapsToLattice(t *testing.T) {
	cons := constraint.Of(
		constraint.Distance{I: 0, J: 1, Target: 6, Sigma: 1}.Row())
	g := 3.0
	pos := Search(2, &cons, Options{Seed: 2, GridSpacing: g})
	for _, p := range pos {
		for c := 0; c < 3; c++ {
			q := p[c] / g
			if math.Abs(q-math.Round(q)) > 1e-9 {
				t.Fatalf("coordinate %g not on the %g lattice", p[c], g)
			}
		}
	}
}

func TestSearchAnchorsSeedPositions(t *testing.T) {
	target := geom.Vec3{40, -12, 8}
	cons := constraint.Of(
		constraint.Position{I: 0, Target: target, Sigma: 1}.Row())
	pos := Search(1, &cons, Options{Seed: 5, GridSpacing: 4, Sweeps: 10})
	if pos[0].Sub(target).Norm() > 8 {
		t.Fatalf("anchored atom drifted to %v", pos[0])
	}
}

func TestSearchEmptyInputs(t *testing.T) {
	if got := Search(0, &constraint.Set{}, Options{}); len(got) != 0 {
		t.Fatal("empty problem")
	}
	pos := Search(3, &constraint.Set{}, Options{Seed: 1, Sweeps: 5})
	if len(pos) != 3 {
		t.Fatal("no constraints should still yield positions")
	}
}

func TestScoreGatedConstraints(t *testing.T) {
	pos := []geom.Vec3{{0, 0, 0}, {3, 0, 0}}
	inactive := constraint.Of(
		constraint.DistanceBound{I: 0, J: 1, Lower: 1, Upper: 5, Sigma: 1}.Row())
	if score(pos, &inactive) != 0 {
		t.Fatal("inactive bound scored")
	}
	violated := constraint.Of(
		constraint.DistanceBound{I: 0, J: 1, Upper: 2, Sigma: 1}.Row())
	if score(pos, &violated) <= 0 {
		t.Fatal("violated bound not scored")
	}
}

func TestSearchRespectsBounds(t *testing.T) {
	// Two atoms with only an upper bound must end up within it (roughly).
	cons := constraint.Of(
		constraint.DistanceBound{I: 0, J: 1, Upper: 6, Sigma: 0.5}.Row())
	pos := Search(2, &cons, Options{Seed: 9, GridSpacing: 2, InitRadius: 60})
	if d := geom.Dist(pos[0], pos[1]); d > 14 {
		t.Fatalf("upper bound ignored: %g", d)
	}
}
