package distgeom

import (
	"math"
	"testing"

	"phmse/internal/constraint"
	"phmse/internal/geom"
	"phmse/internal/molecule"
	"phmse/internal/superpose"
)

// exactDistanceSet builds a fully determined constraint set (all pairs)
// from reference positions.
func exactDistanceSet(pos []geom.Vec3, sigma float64) constraint.Set {
	var cons constraint.Set
	for i := range pos {
		for j := i + 1; j < len(pos); j++ {
			cons.Add(constraint.Distance{
				I: i, J: j, Target: geom.Dist(pos[i], pos[j]), Sigma: sigma,
			}.Row())
		}
	}
	return cons
}

func TestCollectBounds(t *testing.T) {
	cons := constraint.Of(
		constraint.Distance{I: 0, J: 1, Target: 5, Sigma: 0.1}.Row(),
		constraint.DistanceBound{I: 1, J: 2, Lower: 2, Upper: 8, Sigma: 0.5}.Row(),
		constraint.DistanceBound{I: 0, J: 2, Upper: 12, Sigma: 0.5}.Row())
	b := CollectBounds(3, &cons, Options{})
	if lo, hi := b.Lower.At(0, 1), b.Upper.At(0, 1); lo != 4.8 || hi != 5.2 {
		t.Fatalf("exact distance bounds [%g, %g]", lo, hi)
	}
	if lo, hi := b.Lower.At(1, 2), b.Upper.At(1, 2); lo != 2 || hi != 8 {
		t.Fatalf("two-sided bound [%g, %g]", lo, hi)
	}
	if lo := b.Lower.At(0, 2); lo != 1.5 {
		t.Fatalf("default lower %g", lo)
	}
	if b.Upper.At(0, 2) != 12 {
		t.Fatalf("upper-only bound %g", b.Upper.At(0, 2))
	}
	// Symmetry.
	if b.Lower.At(1, 0) != b.Lower.At(0, 1) {
		t.Fatal("bounds not symmetric")
	}
}

func TestSmoothTightensThroughTriangle(t *testing.T) {
	cons := constraint.Of(
		constraint.Distance{I: 0, J: 1, Target: 3, Sigma: 0.01}.Row(),
		constraint.Distance{I: 1, J: 2, Target: 4, Sigma: 0.01}.Row())
	b := CollectBounds(3, &cons, Options{DefaultUpper: 1000})
	if err := b.Smooth(); err != nil {
		t.Fatal(err)
	}
	// d(0,2) ≤ d(0,1) + d(1,2) ≈ 7.
	if hi := b.Upper.At(0, 2); hi > 7.1 {
		t.Fatalf("triangle smoothing missed: upper(0,2) = %g", hi)
	}
}

func TestSmoothDetectsInconsistency(t *testing.T) {
	cons := constraint.Of(
		constraint.Distance{I: 0, J: 1, Target: 2, Sigma: 0.01}.Row(),
		constraint.Distance{I: 1, J: 2, Target: 2, Sigma: 0.01}.Row(),
		constraint.Distance{I: 0, J: 2, Target: 50, Sigma: 0.01}.Row(), // violates triangle
	)
	b := CollectBounds(3, &cons, Options{})
	if err := b.Smooth(); err == nil {
		t.Fatal("inconsistent bounds not detected")
	}
}

func TestEmbedRecoversFullyDeterminedShape(t *testing.T) {
	// A rigid tetrahedron-ish cloud with all pairwise distances known must
	// embed to the right shape (up to rigid motion and reflection).
	ref := []geom.Vec3{
		{0, 0, 0}, {5, 0, 0}, {2, 4, 0}, {1, 1, 4}, {4, 3, 2},
	}
	cons := exactDistanceSet(ref, 0.01)
	pos, err := Embed(len(ref), &cons, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := superpose.RMSD(pos, ref)
	if err != nil {
		t.Fatal(err)
	}
	// Allow the mirror image: reflect and take the better fit.
	mirror := make([]geom.Vec3, len(pos))
	for i, p := range pos {
		mirror[i] = geom.Vec3{p[0], p[1], -p[2]}
	}
	r2, err := superpose.RMSD(mirror, ref)
	if err != nil {
		t.Fatal(err)
	}
	if best := math.Min(r1, r2); best > 0.2 {
		t.Fatalf("embedding RMSD %g", best)
	}
}

func TestEmbedHelixApproximate(t *testing.T) {
	// The helix constraint set is sparse (cutoff-local), so the embedding
	// is a low-resolution candidate: it should land in the right size
	// regime, far better than random scatter.
	h := molecule.Helix(1)
	pos, err := Embed(len(h.Atoms), &h.Constraints, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ref := h.TruePositions()
	r1, err := superpose.RMSD(pos, ref)
	if err != nil {
		t.Fatal(err)
	}
	mirror := make([]geom.Vec3, len(pos))
	for i, p := range pos {
		mirror[i] = geom.Vec3{p[0], p[1], -p[2]}
	}
	r2, _ := superpose.RMSD(mirror, ref)
	if best := math.Min(r1, r2); best > 8 {
		t.Fatalf("helix embedding RMSD %g (should be low-resolution, not random)", best)
	}
}

func TestEmbedEmptyAndTrivial(t *testing.T) {
	if pos, err := Embed(0, nil, Options{}); err != nil || len(pos) != 0 {
		t.Fatal("empty problem")
	}
	cons := constraint.Of(
		constraint.Distance{I: 0, J: 1, Target: 4, Sigma: 0.01}.Row())
	pos, err := Embed(2, &cons, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d := geom.Dist(pos[0], pos[1]); math.Abs(d-4) > 0.5 {
		t.Fatalf("pair distance %g", d)
	}
}

func TestEmbedDeterministic(t *testing.T) {
	h := molecule.Helix(1)
	a, err := Embed(len(h.Atoms), &h.Constraints, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Embed(len(h.Atoms), &h.Constraints, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic embedding")
		}
	}
}
