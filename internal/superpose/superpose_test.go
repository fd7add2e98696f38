package superpose

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"phmse/internal/geom"
	"phmse/internal/molecule"
)

func randCloud(rng *rand.Rand, n int) []geom.Vec3 {
	out := make([]geom.Vec3, n)
	for i := range out {
		out[i] = geom.Vec3{rng.NormFloat64() * 5, rng.NormFloat64() * 5, rng.NormFloat64() * 5}
	}
	return out
}

func TestFitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := randCloud(rng, 10)
	tr, err := Fit(pts, pts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if tr.Apply(p).Sub(p).Norm() > 1e-10 {
			t.Fatal("identity fit moved points")
		}
	}
}

func TestFitRecoversRigidMotion(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	fixed := randCloud(rng, 25)
	rot := rotZ(1.1).Mul(rotX(-0.6))
	shift := geom.Vec3{10, -4, 3}
	moving := make([]geom.Vec3, len(fixed))
	for i, p := range fixed {
		moving[i] = rot.MulVec(p).Add(shift)
	}
	r, err := RMSD(moving, fixed)
	if err != nil {
		t.Fatal(err)
	}
	if r > 1e-9 {
		t.Fatalf("rigid motion not removed: RMSD %g", r)
	}
}

func TestRMSDLessThanUnsuperposed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fixed := randCloud(rng, 30)
	moving := make([]geom.Vec3, len(fixed))
	rot := rotY(0.8)
	for i, p := range fixed {
		moving[i] = rot.MulVec(p).Add(geom.Vec3{3, 3, 3}).Add(geom.Vec3{
			0.1 * rng.NormFloat64(), 0.1 * rng.NormFloat64(), 0.1 * rng.NormFloat64()})
	}
	super, err := RMSD(moving, fixed)
	if err != nil {
		t.Fatal(err)
	}
	raw := molecule.RMSD(moving, fixed)
	if super >= raw {
		t.Fatalf("superposed RMSD %g not below raw %g", super, raw)
	}
	if super > 0.3 {
		t.Fatalf("residual noise RMSD %g too large", super)
	}
}

// Property: the fitted rotation is proper (det = +1) and orthonormal, and
// the superposed RMSD is invariant under an extra rigid motion of the
// moving set.
func TestFitProperRotationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(20)
		fixed := randCloud(rng, n)
		moving := randCloud(rng, n)
		tr, err := Fit(moving, fixed)
		if err != nil {
			return false
		}
		r := tr.R
		det := r[0]*(r[4]*r[8]-r[5]*r[7]) - r[1]*(r[3]*r[8]-r[5]*r[6]) + r[2]*(r[3]*r[7]-r[4]*r[6])
		if math.Abs(det-1) > 1e-8 {
			return false
		}
		base, err := RMSD(moving, fixed)
		if err != nil {
			return false
		}
		rot := rotZ(rng.Float64() * 6)
		shifted := make([]geom.Vec3, n)
		for i, p := range moving {
			shifted[i] = rot.MulVec(p).Add(geom.Vec3{1, 2, 3})
		}
		again, err := RMSD(shifted, fixed)
		if err != nil {
			return false
		}
		return math.Abs(base-again) < 1e-7*(1+base)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFitLengthMismatch(t *testing.T) {
	if _, err := Fit(make([]geom.Vec3, 2), make([]geom.Vec3, 3)); err == nil {
		t.Fatal("no error")
	}
}

func TestFitEmpty(t *testing.T) {
	tr, err := Fit(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Apply(geom.Vec3{1, 2, 3}) != (geom.Vec3{1, 2, 3}) {
		t.Fatal("empty fit not identity")
	}
}

func TestApplyAll(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := randCloud(rng, 5)
	tr := Transform{R: rotZ(0.5), FixedCenter: geom.Vec3{1, 0, 0}}
	out := tr.ApplyAll(pts)
	if len(out) != len(pts) {
		t.Fatal("length")
	}
	for i := range pts {
		if out[i] != tr.Apply(pts[i]) {
			t.Fatal("mismatch")
		}
	}
}

// rotX, rotY and rotZ are the rotations by angle (radians) about the axes.
func rotX(a float64) geom.Mat3 {
	c, s := math.Cos(a), math.Sin(a)
	return geom.Mat3{1, 0, 0, 0, c, -s, 0, s, c}
}

func rotY(a float64) geom.Mat3 {
	c, s := math.Cos(a), math.Sin(a)
	return geom.Mat3{c, 0, s, 0, 1, 0, -s, 0, c}
}

func rotZ(a float64) geom.Mat3 {
	c, s := math.Cos(a), math.Sin(a)
	return geom.Mat3{c, -s, 0, s, c, 0, 0, 0, 1}
}
