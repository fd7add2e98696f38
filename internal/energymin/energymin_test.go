package energymin

import (
	"math"
	"testing"

	"phmse/internal/constraint"
	"phmse/internal/geom"
	"phmse/internal/molecule"
)

func TestEnergyGradMatchesFiniteDifference(t *testing.T) {
	cons := constraint.Of(
		constraint.Distance{I: 0, J: 1, Target: 3, Sigma: 0.5}.Row(),
		constraint.Position{I: 0, Target: geom.Vec3{1, 1, 1}, Sigma: 0.3}.Row(),
		constraint.Angle{I: 0, J: 1, K: 2, Target: 1.5, Sigma: 0.2}.Row())
	pos := []geom.Vec3{{0.2, 0.1, -0.3}, {2.5, 0.3, 0.4}, {2.1, 2.8, 0.1}}
	grad := make([]geom.Vec3, len(pos))
	EnergyGrad(pos, &cons, grad)
	const eps = 1e-6
	for a := range pos {
		for c := 0; c < 3; c++ {
			p := append([]geom.Vec3(nil), pos...)
			p[a][c] += eps
			ep := Energy(p, &cons)
			p[a][c] -= 2 * eps
			em := Energy(p, &cons)
			num := (ep - em) / (2 * eps)
			if math.Abs(num-grad[a][c]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("grad[%d][%d]: analytic %g numeric %g", a, c, grad[a][c], num)
			}
		}
	}
}

func TestMinimizeTriangle(t *testing.T) {
	cons := constraint.Of(
		constraint.Position{I: 0, Target: geom.Vec3{0, 0, 0}, Sigma: 0.05}.Row(),
		constraint.Distance{I: 0, J: 1, Target: 3, Sigma: 0.05}.Row(),
		constraint.Distance{I: 0, J: 2, Target: 4, Sigma: 0.05}.Row(),
		constraint.Distance{I: 1, J: 2, Target: 5, Sigma: 0.05}.Row())
	pos := []geom.Vec3{{0.3, 0.1, 0}, {2.0, 0.8, 0.2}, {0.5, 3.1, -0.4}}
	res := Minimize(pos, &cons, Options{MaxIters: 2000, GradTol: 1e-6})
	if res.Energy > 1e-4 {
		t.Fatalf("final energy %g (iters %d, converged %v)", res.Energy, res.Iters, res.Converged)
	}
	if d := geom.Dist(pos[1], pos[2]); math.Abs(d-5) > 0.01 {
		t.Fatalf("d12 = %g", d)
	}
}

func TestMinimizeLowersEnergyMonotonically(t *testing.T) {
	h := molecule.WithAnchors(molecule.Helix(1), 3, 0.1)
	pos := molecule.Perturbed(h, 0.5, 3)
	before := Energy(pos, &h.Constraints)
	res := Minimize(pos, &h.Constraints, Options{MaxIters: 50})
	if res.Energy >= before {
		t.Fatalf("energy did not decrease: %g → %g", before, res.Energy)
	}
}

func TestMinimizeRespectsGatedBounds(t *testing.T) {
	cons := constraint.Of(
		constraint.Position{I: 0, Target: geom.Vec3{0, 0, 0}, Sigma: 0.1}.Row(),
		constraint.DistanceBound{I: 0, J: 1, Upper: 5, Sigma: 0.2}.Row())
	pos := []geom.Vec3{{0, 0, 0}, {9, 0, 0}}
	Minimize(pos, &cons, Options{MaxIters: 500})
	if d := geom.Dist(pos[0], pos[1]); d > 5.5 {
		t.Fatalf("upper bound not enforced: %g", d)
	}
	// Inside the bound there is no force: a satisfied configuration stays.
	pos2 := []geom.Vec3{{0, 0, 0}, {3, 0, 0}}
	res := Minimize(pos2, &cons, Options{MaxIters: 50})
	if !res.Converged || geom.Dist(pos2[0], pos2[1]) != 3 {
		t.Fatalf("flat-bottom well violated: %+v, d=%g", res, geom.Dist(pos2[0], pos2[1]))
	}
}

func TestMinimizeEmpty(t *testing.T) {
	res := Minimize(nil, nil, Options{})
	if !res.Converged {
		t.Fatal("empty problem should converge")
	}
}

func TestMinimizeZeroSigmaSkipped(t *testing.T) {
	// Constraints with non-positive variance are ignored rather than
	// dividing by zero.
	cons := constraint.Of(
		constraint.Distance{I: 0, J: 1, Target: 3, Sigma: 0}.Row())
	pos := []geom.Vec3{{0, 0, 0}, {1, 0, 0}}
	res := Minimize(pos, &cons, Options{MaxIters: 10})
	if res.Energy != 0 || math.IsNaN(pos[0][0]) {
		t.Fatalf("zero-sigma handling: %+v", res)
	}
}
