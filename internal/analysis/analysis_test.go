package analysis

import (
	"math"
	"strings"
	"testing"

	"phmse/internal/constraint"
	"phmse/internal/filter"
	"phmse/internal/geom"
)

// anisotropicState builds a two-atom state where atom 0 is tightly pinned
// in x but loose in z, and atom 1 is isotropic and uncorrelated.
func anisotropicState() *filter.State {
	s := filter.NewState([]geom.Vec3{{0, 0, 0}, {5, 0, 0}}, 1)
	s.C.Set(0, 0, 0.01) // σx = 0.1
	s.C.Set(1, 1, 0.25) // σy = 0.5
	s.C.Set(2, 2, 4.0)  // σz = 2.0
	return s
}

func TestAtomEllipsoid(t *testing.T) {
	s := anisotropicState()
	e, err := AtomEllipsoid(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := [3]float64{2.0, 0.5, 0.1}
	for k := 0; k < 3; k++ {
		if math.Abs(e.Sigmas[k]-want[k]) > 1e-12 {
			t.Fatalf("σ[%d] = %g, want %g", k, e.Sigmas[k], want[k])
		}
	}
	// Largest axis is ±z.
	if math.Abs(math.Abs(e.Axes[0][2])-1) > 1e-12 {
		t.Fatalf("major axis %v not along z", e.Axes[0])
	}
	if math.Abs(e.Anisotropy()-20) > 1e-9 {
		t.Fatalf("anisotropy = %g", e.Anisotropy())
	}
	wantVol := 4 * math.Pi / 3 * 2.0 * 0.5 * 0.1
	if math.Abs(e.volume()-wantVol) > 1e-12 {
		t.Fatalf("volume = %g", e.volume())
	}
	if e.String() == "" {
		t.Fatal("String")
	}
}

func TestAtomEllipsoidBounds(t *testing.T) {
	s := anisotropicState()
	if _, err := AtomEllipsoid(s, 2); err == nil {
		t.Fatal("out-of-range atom accepted")
	}
	if _, err := AtomEllipsoid(s, -1); err == nil {
		t.Fatal("negative atom accepted")
	}
}

func TestCorrelationZeroThenFilled(t *testing.T) {
	// Before any joint observation the atoms are uncorrelated; a shared
	// distance constraint fills in the off-diagonal block (§3's mechanism).
	s := filter.NewState([]geom.Vec3{{0, 0, 0}, {3, 0, 0}}, 25)
	if c := Correlation(s, 0, 1); c != 0 {
		t.Fatalf("initial correlation %g", c)
	}
	cons := constraint.Of(
		constraint.Distance{I: 0, J: 1, Target: 3, Sigma: 0.1}.Row())
	batches, err := filter.MakeBatches(&cons, cons.AllRows(), func(a int) int { return a }, 16)
	if err != nil {
		t.Fatal(err)
	}
	u := &filter.Updater{}
	if _, _, err := u.ApplyLower(s, batches, u.JoinScan(filter.Bound{}, s)); err != nil {
		t.Fatal(err)
	}
	c01 := Correlation(s, 0, 1)
	if c01 <= 0.1 {
		t.Fatalf("shared observation left correlation at %g", c01)
	}
	if Correlation(s, 0, 0) <= 0 {
		t.Fatal("self correlation")
	}
}

func TestRankAtoms(t *testing.T) {
	s := anisotropicState()
	// Atom 0 total variance 4.26, atom 1: 3.
	ranked := RankAtoms(s)
	if ranked[0] != 1 || ranked[1] != 0 {
		t.Fatalf("ranked = %v", ranked)
	}
}

func TestReport(t *testing.T) {
	s := anisotropicState()
	rep := Report(s, []string{"CA", "CB"}, 1)
	for _, want := range []string{"best determined", "worst determined", "CA", "CB", "anisotropy"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
	// k clamps; empty state handled.
	if rep := Report(s, nil, 99); !strings.Contains(rep, "atom 0") {
		t.Fatalf("clamped report:\n%s", rep)
	}
	empty := filter.NewState(nil, 1)
	if !strings.Contains(Report(empty, nil, 3), "empty") {
		t.Fatal("empty report")
	}
}

func TestEllipsoidFromRealSolve(t *testing.T) {
	// After anchoring atom 0 tightly and leaving atom 1 on a single
	// distance, atom 1's ellipsoid must be elongated perpendicular to the
	// constraint direction (a distance pins the radial direction only).
	s := filter.NewState([]geom.Vec3{{0, 0, 0}, {3, 0, 0}}, 9)
	cons := constraint.Of(
		constraint.Position{I: 0, Target: geom.Vec3{0, 0, 0}, Sigma: 0.01}.Row(),
		constraint.Distance{I: 0, J: 1, Target: 3, Sigma: 0.05}.Row())
	batches, err := filter.MakeBatches(&cons, cons.AllRows(), func(a int) int { return a }, 16)
	if err != nil {
		t.Fatal(err)
	}
	u := &filter.Updater{}
	if _, _, err := u.ApplyLower(s, batches, u.JoinScan(filter.Bound{}, s)); err != nil {
		t.Fatal(err)
	}
	e, err := AtomEllipsoid(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e.Anisotropy() < 3 {
		t.Fatalf("distance-only atom should be strongly anisotropic: %v", e)
	}
	// The best-constrained direction (smallest σ) is the x (radial) axis.
	if math.Abs(math.Abs(e.Axes[2][0])-1) > 0.05 {
		t.Fatalf("minor axis %v not radial", e.Axes[2])
	}
}

func TestResidualByType(t *testing.T) {
	pos := []geom.Vec3{{0, 0, 0}, {4, 0, 0}, {4, 3, 0}}
	cons := constraint.Of(
		constraint.Distance{I: 0, J: 1, Target: 4, Sigma: 0.5}.Row(),          // satisfied
		constraint.Distance{I: 1, J: 2, Target: 4, Sigma: 0.5}.Row(),          // off by 1 → 2σ
		constraint.Position{I: 0, Target: geom.Vec3{0, 0, 1}, Sigma: 1}.Row(), // off by 1σ in z
		constraint.Angle{I: 0, J: 1, K: 2, Target: math.Pi / 2, Sigma: 0.1}.Row(),
		constraint.DistanceBound{I: 0, J: 2, Upper: 100, Sigma: 1}.Row(), // inactive
	)
	byType := ResidualByType(pos, &cons)
	d := byType["distance"]
	if d.Scalars != 2 {
		t.Fatalf("distance scalars = %d", d.Scalars)
	}
	if math.Abs(d.Worst-2) > 1e-9 {
		t.Fatalf("distance worst = %g", d.Worst)
	}
	if math.Abs(d.RMS-math.Sqrt2) > 1e-9 {
		t.Fatalf("distance rms = %g", d.RMS)
	}
	p := byType["position"]
	if p.Scalars != 3 || math.Abs(p.Worst-1) > 1e-9 {
		t.Fatalf("position: %+v", p)
	}
	if a := byType["angle"]; a.Scalars != 1 || a.RMS > 1e-9 {
		t.Fatalf("angle: %+v", a)
	}
	if _, ok := byType["bound"]; ok {
		t.Fatal("inactive bound should not appear")
	}
	out := FormatResiduals(byType)
	for _, want := range []string{"distance", "angle", "position", "worst"} {
		if !strings.Contains(out, want) {
			t.Fatalf("format missing %q:\n%s", want, out)
		}
	}
}

func TestResidualByTypeTorsionWraps(t *testing.T) {
	// A torsion observed at −175° with geometry at +175° is 10° off, not 350°.
	pos := []geom.Vec3{{0, 1, 0}, {0, 0, 0}, {1.5, 0, 0}, {1.5, -0.95, -0.1}}
	cur := geom.Dihedral(pos[0], pos[1], pos[2], pos[3])
	if cur < 2.8 {
		t.Fatalf("setup: dihedral %g", cur)
	}
	target := cur - 2*math.Pi + 10*math.Pi/180 // wraps to the other side
	cons := constraint.Of(
		constraint.Torsion{I: 0, J: 1, K: 2, L: 3, Target: target, Sigma: 1}.Row())
	byType := ResidualByType(pos, &cons)
	tor := byType["torsion"]
	if tor.Worst > 0.2 {
		t.Fatalf("torsion residual %g did not wrap", tor.Worst)
	}
}
