package constraint

import (
	"math"
	"math/rand"
	"testing"

	"phmse/internal/geom"
)

// numericJacobian computes the central-difference Jacobian of a row at the
// given positions, for verification of the analytic gradients.
func numericJacobian(r Row, pos []geom.Vec3) [][]float64 {
	const eps = 1e-6
	dim := r.Kind.Dim()
	n := len(pos)
	jac := make([][]float64, dim)
	for d := range jac {
		jac[d] = make([]float64, 3*n)
	}
	for a := 0; a < n; a++ {
		for cc := 0; cc < 3; cc++ {
			p := make([]geom.Vec3, n)
			copy(p, pos)
			p[a][cc] += eps
			plus, _ := evalRow(r, p)
			p[a][cc] -= 2 * eps
			minus, _ := evalRow(r, p)
			for d := 0; d < dim; d++ {
				diff := plus.H[d] - minus.H[d]
				// Angles can wrap across ±π.
				if diff > math.Pi {
					diff -= 2 * math.Pi
				} else if diff < -math.Pi {
					diff += 2 * math.Pi
				}
				jac[d][3*a+cc] = diff / (2 * eps)
			}
		}
	}
	return jac
}

func checkJacobian(t *testing.T, r Row, pos []geom.Vec3, tol float64) {
	t.Helper()
	_, analytic := evalRow(r, pos)
	numeric := numericJacobian(r, pos)
	for d := range analytic {
		for k := range analytic[d] {
			if math.Abs(analytic[d][k]-numeric[d][k]) > tol {
				t.Fatalf("row %d col %d: analytic %g numeric %g",
					d, k, analytic[d][k], numeric[d][k])
			}
		}
	}
}

func randPos(rng *rand.Rand, n int) []geom.Vec3 {
	pos := make([]geom.Vec3, n)
	for i := range pos {
		pos[i] = geom.Vec3{rng.NormFloat64() * 3, rng.NormFloat64() * 3, rng.NormFloat64() * 3}
	}
	return pos
}

func TestDistanceBasics(t *testing.T) {
	s := Of(Distance{I: 4, J: 9, Target: 1.5, Sigma: 0.1}.Row())
	if got := s.Atoms(0); s.Len() != 1 || len(got) != 2 || got[0] != 4 || got[1] != 9 {
		t.Fatal("Atoms")
	}
	if s.Kind(0).Dim() != 1 || s.ScalarDim() != 1 {
		t.Fatal("Dim")
	}
	r := s.Row(0)
	if r.Val[0] != 1.5 || r.Sigma != 0.1 || r.Atoms[1] != 9 {
		t.Fatalf("Row %+v", r)
	}
	lin, _ := evalRow(Distance{I: 0, J: 1, Target: 1.5, Sigma: 0.1}.Row(), []geom.Vec3{{}, {1, 0, 0}})
	if lin.Z[0] != 1.5 || math.Abs(lin.R[0]-0.01) > 1e-15 {
		t.Fatalf("observed %v %v", lin.Z, lin.R)
	}
	if r.String() == "" {
		t.Fatal("String")
	}
}

func TestDistanceEvalValue(t *testing.T) {
	lin, jac := evalRow(Distance{J: 1}.Row(), []geom.Vec3{{0, 0, 0}, {3, 4, 0}})
	if lin.H[0] != 5 {
		t.Fatalf("h = %g", lin.H[0])
	}
	// Gradient points from j to i for atom i.
	if math.Abs(jac[0][0]-(-0.6)) > 1e-14 || math.Abs(jac[0][3]-0.6) > 1e-14 {
		t.Fatalf("jac = %v", jac[0])
	}
}

func TestDistanceCoincidentAtoms(t *testing.T) {
	lin, _ := evalRow(Distance{J: 1}.Row(), []geom.Vec3{{1, 1, 1}, {1, 1, 1}})
	if lin.H[0] != 0 {
		t.Fatal("h != 0 for coincident atoms")
	}
	if cols, _ := lin.Jac.Build().Row(0); len(cols) != 0 {
		t.Fatal("non-zero gradient for coincident atoms")
	}
}

func TestDistanceJacobianNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		pos := randPos(rng, 2)
		if geom.Dist(pos[0], pos[1]) < 0.2 {
			continue
		}
		checkJacobian(t, Distance{I: 0, J: 1, Target: 1, Sigma: 1}.Row(), pos, 1e-6)
	}
}

func TestAngleEvalValue(t *testing.T) {
	lin, _ := evalRow(Angle{I: 0, J: 1, K: 2, Target: math.Pi / 2, Sigma: 0.1}.Row(), []geom.Vec3{{1, 0, 0}, {0, 0, 0}, {0, 1, 0}})
	if math.Abs(lin.H[0]-math.Pi/2) > 1e-14 {
		t.Fatalf("angle = %g", lin.H[0])
	}
}

func TestAngleJacobianNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 25; trial++ {
		pos := randPos(rng, 3)
		// Skip nearly degenerate configurations.
		ang := geom.Angle(pos[0], pos[1], pos[2])
		if ang < 0.3 || ang > math.Pi-0.3 ||
			geom.Dist(pos[0], pos[1]) < 0.3 || geom.Dist(pos[2], pos[1]) < 0.3 {
			continue
		}
		checkJacobian(t, Angle{I: 0, J: 1, K: 2, Target: 1, Sigma: 1}.Row(), pos, 1e-5)
	}
}

func TestAngleDegenerateZeroGradient(t *testing.T) {
	a := Angle{I: 0, J: 1, K: 2}.Row()
	// Collinear points: gradient undefined, must be zeroed.
	_, jac := evalRow(a, []geom.Vec3{{1, 0, 0}, {0, 0, 0}, {2, 0, 0}})
	for _, v := range jac[0] {
		if v != 0 {
			t.Fatal("non-zero gradient at degenerate angle")
		}
	}
	// Coincident vertex.
	lin, _ := evalRow(a, []geom.Vec3{{0, 0, 0}, {0, 0, 0}, {1, 0, 0}})
	if lin.H[0] != 0 {
		t.Fatal("degenerate angle value")
	}
}

func TestTorsionEvalValue(t *testing.T) {
	pos := []geom.Vec3{{0, 1, 0}, {0, 0, 0}, {1, 0, 0}, {1, 1, 0}}
	lin, _ := evalRow(Torsion{I: 0, J: 1, K: 2, L: 3}.Row(), pos)
	if math.Abs(lin.H[0]) > 1e-12 {
		t.Fatalf("cis torsion = %g", lin.H[0])
	}
	if !lin.Wrap[0] {
		t.Fatal("torsion innovation not periodic")
	}
}

func TestTorsionJacobianNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	checked := 0
	for trial := 0; trial < 60 && checked < 25; trial++ {
		pos := randPos(rng, 4)
		b1 := pos[1].Sub(pos[0])
		b2 := pos[2].Sub(pos[1])
		b3 := pos[3].Sub(pos[2])
		if b1.Cross(b2).Norm() < 0.5 || b2.Cross(b3).Norm() < 0.5 || b2.Norm() < 0.5 {
			continue
		}
		phi := geom.Dihedral(pos[0], pos[1], pos[2], pos[3])
		if math.Abs(math.Abs(phi)-math.Pi) < 0.2 {
			continue // wrap-around makes finite differences unreliable
		}
		checkJacobian(t, Torsion{I: 0, J: 1, K: 2, L: 3, Target: 1, Sigma: 1}.Row(), pos, 1e-5)
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d non-degenerate configurations checked", checked)
	}
}

func TestTorsionDegenerate(t *testing.T) {
	// Collinear chain: zero gradient.
	_, jac := evalRow(Torsion{I: 0, J: 1, K: 2, L: 3}.Row(), []geom.Vec3{{0, 0, 0}, {1, 0, 0}, {2, 0, 0}, {3, 0, 0}})
	for _, v := range jac[0] {
		if v != 0 {
			t.Fatal("non-zero gradient at degenerate torsion")
		}
	}
}

func TestPosition(t *testing.T) {
	s := Of(Position{I: 7, Target: geom.Vec3{1, 2, 3}, Sigma: 0.5}.Row())
	if s.Kind(0).Dim() != 3 || s.Atoms(0)[0] != 7 {
		t.Fatal("shape")
	}
	lin, jac := evalRow(Position{Target: geom.Vec3{1, 2, 3}, Sigma: 0.5}.Row(), []geom.Vec3{{9, 8, 7}})
	if lin.Z[2] != 3 || lin.R[0] != 0.25 {
		t.Fatalf("observed %v %v", lin.Z, lin.R)
	}
	if lin.H[0] != 9 || lin.H[1] != 8 || lin.H[2] != 7 {
		t.Fatalf("h = %v", lin.H)
	}
	for d := 0; d < 3; d++ {
		for k := 0; k < 3; k++ {
			want := 0.0
			if d == k {
				want = 1
			}
			if jac[d][k] != want {
				t.Fatalf("jac[%d][%d] = %g", d, k, jac[d][k])
			}
		}
	}
}

// active reports whether the bound is active at the positions.
func active(b DistanceBound, pos []geom.Vec3) bool {
	b.I, b.J = 0, 1
	lin, _ := evalRow(b.Row(), pos)
	return len(lin.Z) > 0
}

func TestDistanceBoundGating(t *testing.T) {
	b := DistanceBound{I: 0, J: 1, Lower: 2, Upper: 5, Sigma: 0.1}
	near := []geom.Vec3{{0, 0, 0}, {1, 0, 0}}   // r=1 < lower
	inside := []geom.Vec3{{0, 0, 0}, {3, 0, 0}} // 2 ≤ 3 ≤ 5
	far := []geom.Vec3{{0, 0, 0}, {7, 0, 0}}    // r=7 > upper
	if !active(b, near) || active(b, inside) || !active(b, far) {
		t.Fatal("gating wrong")
	}
	// Upper-only bound.
	up := DistanceBound{Upper: 5, Sigma: 0.1}
	if active(up, near) || !active(up, far) {
		t.Fatal("upper-only gating wrong")
	}
	// Lower-only bound (Upper = 0 means absent).
	lo := DistanceBound{Lower: 2, Sigma: 0.1}
	if !active(lo, near) || active(lo, far) {
		t.Fatal("lower-only gating wrong")
	}
}

// observed returns the target a bound pulls toward when active at pos.
func observed(b DistanceBound, pos []geom.Vec3) float64 {
	b.I, b.J = 0, 1
	lin, _ := evalRow(b.Row(), pos)
	return lin.Z[0]
}

func TestDistanceBoundObserved(t *testing.T) {
	near := []geom.Vec3{{0, 0, 0}, {1, 0, 0}}
	far := []geom.Vec3{{0, 0, 0}, {9, 0, 0}}
	if z := observed(DistanceBound{Lower: 2, Sigma: 1}, near); z != 2 {
		t.Fatalf("lower-only target %g", z)
	}
	if z := observed(DistanceBound{Upper: 5, Sigma: 1}, far); z != 5 {
		t.Fatalf("upper-only target %g", z)
	}
	if z := observed(DistanceBound{Lower: 2, Upper: 6, Sigma: 1}, near); z != 4 {
		t.Fatalf("two-sided target %g", z)
	}
}

// A limit the gate reads as absent is absent from the target too: a
// non-positive upper limit does not drag the target below the lower one,
// and a non-positive lower one does not drag it below the upper.
func TestDistanceBoundObservedReadsLimitsAsActiveDoes(t *testing.T) {
	at2 := []geom.Vec3{{0, 0, 0}, {2, 0, 0}}
	at9 := []geom.Vec3{{0, 0, 0}, {9, 0, 0}}
	for _, c := range []struct {
		b    DistanceBound
		pos  []geom.Vec3
		want float64
	}{
		{DistanceBound{Lower: 3, Upper: -1, Sigma: 1}, at2, 3},
		{DistanceBound{Lower: 3, Upper: math.Inf(1), Sigma: 1}, at2, 3},
		{DistanceBound{Lower: -1, Upper: 5, Sigma: 1}, at9, 5},
		{DistanceBound{Lower: math.NaN(), Upper: 5, Sigma: 1}, at9, 5},
	} {
		if !active(c.b, c.pos) {
			t.Fatalf("%+v inactive", c.b)
		}
		if z := observed(c.b, c.pos); z != c.want {
			t.Errorf("%+v observes %g, want %g", c.b, z, c.want)
		}
	}
}

func TestSetAppendAndTopology(t *testing.T) {
	a := Of(Distance{I: 0, J: 1, Target: 1, Sigma: 1}.Row(), Position{I: 2, Sigma: 1}.Row())
	b := Of(Torsion{I: 3, J: 2, K: 1, L: 0, Sigma: 1}.Row())
	a.Append(&b)
	if a.Len() != 3 || a.ScalarDim() != 5 || a.Row(2) != b.Row(0) {
		t.Fatalf("appended set: %d rows, %d scalars, last %v", a.Len(), a.ScalarDim(), a.Row(2))
	}
	c := Of(Distance{I: 0, J: 1, Target: 7, Sigma: 2}.Row(), Position{I: 2, Target: geom.Vec3{1, 1, 1}, Sigma: 1}.Row(),
		Torsion{I: 3, J: 2, K: 1, L: 0, Target: 1, Sigma: 1}.Row())
	if !a.SameTopology(&c) {
		t.Fatal("new values changed the topology")
	}
	d := Of(DistanceBound{I: 0, J: 1, Sigma: 1}.Row(), Position{I: 2, Sigma: 1}.Row(), Torsion{I: 3, J: 2, K: 1, L: 0, Sigma: 1}.Row())
	e := Of(Distance{I: 1, J: 0, Sigma: 1}.Row(), Position{I: 2, Sigma: 1}.Row(), Torsion{I: 3, J: 2, K: 1, L: 0, Sigma: 1}.Row())
	if a.SameTopology(&d) || a.SameTopology(&e) {
		t.Fatal("another kind or atom order kept the topology")
	}
}
