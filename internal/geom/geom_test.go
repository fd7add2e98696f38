package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randVec(rng *rand.Rand) Vec3 {
	return Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
}

// rotX, rotY and rotZ return the rotations by angle (radians) about the axes.
func rotX(angle float64) Mat3 {
	c, s := math.Cos(angle), math.Sin(angle)
	return Mat3{1, 0, 0, 0, c, -s, 0, s, c}
}

func rotY(angle float64) Mat3 {
	c, s := math.Cos(angle), math.Sin(angle)
	return Mat3{c, 0, s, 0, 1, 0, -s, 0, c}
}

func rotZ(angle float64) Mat3 {
	c, s := math.Cos(angle), math.Sin(angle)
	return Mat3{c, -s, 0, s, c, 0, 0, 0, 1}
}

func TestVecArithmetic(t *testing.T) {
	v := Vec3{1, 2, 3}
	w := Vec3{4, 5, 6}
	if v.Add(w) != (Vec3{5, 7, 9}) {
		t.Fatal("Add")
	}
	if w.Sub(v) != (Vec3{3, 3, 3}) {
		t.Fatal("Sub")
	}
	if v.Scale(2) != (Vec3{2, 4, 6}) {
		t.Fatal("Scale")
	}
	if v.Dot(w) != 32 {
		t.Fatal("Dot")
	}
}

func TestCross(t *testing.T) {
	x := Vec3{1, 0, 0}
	y := Vec3{0, 1, 0}
	if x.Cross(y) != (Vec3{0, 0, 1}) {
		t.Fatal("x × y != z")
	}
	if y.Cross(x) != (Vec3{0, 0, -1}) {
		t.Fatal("y × x != −z")
	}
}

func TestNormUnitDist(t *testing.T) {
	v := Vec3{3, 4, 0}
	if v.Norm() != 5 || v.Norm2() != 25 {
		t.Fatal("Norm")
	}
	u := v.Unit()
	if !almost(u.Norm(), 1, 1e-15) {
		t.Fatal("Unit")
	}
	if (Vec3{}).Unit() != (Vec3{}) {
		t.Fatal("Unit of zero")
	}
	if Dist(Vec3{1, 1, 1}, Vec3{1, 1, 2}) != 1 {
		t.Fatal("Dist")
	}
}

func TestAngle(t *testing.T) {
	// Right angle at the origin.
	if !almost(Angle(Vec3{1, 0, 0}, Vec3{}, Vec3{0, 1, 0}), math.Pi/2, 1e-14) {
		t.Fatal("right angle")
	}
	// Collinear gives π.
	if !almost(Angle(Vec3{1, 0, 0}, Vec3{}, Vec3{-2, 0, 0}), math.Pi, 1e-14) {
		t.Fatal("straight angle")
	}
}

func TestDihedral(t *testing.T) {
	// A classic ±90° test: c–d rotated about the b–c (x) axis.
	a := Vec3{0, 1, 0}
	b := Vec3{0, 0, 0}
	c := Vec3{1, 0, 0}
	d := Vec3{1, 0, 1}
	got := Dihedral(a, b, c, d)
	if !almost(math.Abs(got), math.Pi/2, 1e-12) {
		t.Fatalf("dihedral = %g", got)
	}
	// Cis (same side) is 0.
	if !almost(Dihedral(a, b, c, Vec3{1, 1, 0}), 0, 1e-12) {
		t.Fatal("cis dihedral")
	}
	// Trans is π.
	if !almost(math.Abs(Dihedral(a, b, c, Vec3{1, -1, 0})), math.Pi, 1e-12) {
		t.Fatal("trans dihedral")
	}
}

func TestRotations(t *testing.T) {
	v := Vec3{1, 0, 0}
	got := rotZ(math.Pi / 2).MulVec(v)
	if !almost(got[0], 0, 1e-15) || !almost(got[1], 1, 1e-15) {
		t.Fatalf("RotZ: %v", got)
	}
	got = rotY(math.Pi / 2).MulVec(v)
	if !almost(got[2], -1, 1e-15) {
		t.Fatalf("RotY: %v", got)
	}
	got = rotX(math.Pi / 2).MulVec(Vec3{0, 1, 0})
	if !almost(got[2], 1, 1e-15) {
		t.Fatalf("RotX: %v", got)
	}
}

// Property: rotations preserve lengths and compose correctly.
func TestRotationPreservesNormProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := randVec(rng)
		r := rotZ(rng.Float64() * 2 * math.Pi).Mul(rotY(rng.Float64() * 2 * math.Pi))
		return almost(r.MulVec(v).Norm(), v.Norm(), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: (m·n)·v == m·(n·v).
func TestMatMulAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := rotX(rng.NormFloat64())
		n := rotZ(rng.NormFloat64())
		v := randVec(rng)
		left := m.Mul(n).MulVec(v)
		right := m.MulVec(n.MulVec(v))
		return left.Sub(right).Norm() < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: dihedral is invariant under rigid motion.
func TestDihedralRigidInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c, d := randVec(rng), randVec(rng), randVec(rng), randVec(rng)
		r := rotZ(rng.Float64() * 6).Mul(rotX(rng.Float64() * 6))
		tr := randVec(rng)
		move := func(p Vec3) Vec3 { return r.MulVec(p).Add(tr) } // p ↦ R·p + T
		d1 := Dihedral(a, b, c, d)
		d2 := Dihedral(move(a), move(b), move(c), move(d))
		if math.IsNaN(d1) || math.IsNaN(d2) {
			return true // degenerate random configuration
		}
		diff := math.Abs(d1 - d2)
		if diff > math.Pi {
			diff = 2*math.Pi - diff
		}
		return diff < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
