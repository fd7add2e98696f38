package hier

import (
	"math"
	"math/rand"
	"testing"

	"phmse/internal/constraint"
	"phmse/internal/filter"
	"phmse/internal/geom"
	"phmse/internal/mat"
	"phmse/internal/molecule"
	"phmse/internal/stats"
)

// z995 is the standard normal 0.995 quantile: a two-sided 99 % band.
const z995 = 2.5758293035489004

// nees returns eᵀC⁻¹e for the estimate s of the coordinates truth, with s
// in the order atoms gives: C is factored straight from the lower triangle
// the solver returns.
func nees(t *testing.T, s *filter.State, atoms []int, truth []geom.Vec3) float64 {
	t.Helper()
	l := s.C.Clone()
	if err := mat.Cholesky(l); err != nil {
		t.Fatal(err)
	}
	e := make([]float64, s.Dim())
	for i, a := range atoms {
		for c := 0; c < 3; c++ {
			e[3*i+c] = s.X[3*i+c] - truth[a][c]
		}
	}
	mat.ForwardSolve(l, e)
	return mat.Dot(e, e)
}

// linearReplicate draws one linear problem around truth: displacement
// observations along the chain and between random atom pairs, each with its
// stated σ and Gaussian noise of exactly that σ, and a prior mean drawn
// from N(truth, initVar·I) — the prior every node starts from.
func linearReplicate(rng *rand.Rand, truth []geom.Vec3, initVar float64) (*molecule.Problem, []geom.Vec3) {
	p := &molecule.Problem{Name: "nees", Tree: RecursiveBisection(len(truth), 3)}
	for _, x := range truth {
		p.Atoms = append(p.Atoms, molecule.Atom{Pos: x})
	}
	observe := func(i, j int) {
		sigma := 0.2 + rng.Float64()
		noise := geom.Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}.Scale(sigma)
		p.Constraints.Add(constraint.Displacement{I: i, J: j, Target: truth[j].Sub(truth[i]).Add(noise), Sigma: sigma}.Row())
	}
	for i := 0; i+1 < len(truth); i++ {
		observe(i, i+1)
	}
	for k := 0; k < len(truth)/2; k++ {
		if i, j := rng.Intn(len(truth)), rng.Intn(len(truth)); i != j {
			observe(i, j)
		}
	}
	prior := make([]geom.Vec3, len(truth))
	sd := math.Sqrt(initVar)
	for i, x := range truth {
		prior[i] = x.Add(geom.Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}.Scale(sd))
	}
	return p, prior
}

// On a linear problem whose noise and prior are drawn from the stated
// variances, one pass is the exact Kalman posterior, so the normalised
// estimation error squared eᵀC⁻¹e is χ² with 3n degrees of freedom. Its mean
// over the replicates must fall inside the two-sided 99 % band of a χ²
// with 3n·replicates degrees of freedom, divided by the replicates — for
// the hierarchical pass and for a flat ApplyLower alike. A C too small by half
// doubles the mean and leaves the band; so does one too large.
func TestNEESInBandOnLinearProblem(t *testing.T) {
	const (
		atoms      = 12
		replicates = 200
		initVar    = 4.0
	)
	rng := rand.New(rand.NewSource(1996))
	truth := make([]geom.Vec3, atoms)
	for i := range truth {
		truth[i] = geom.Vec3{rng.NormFloat64() * 5, rng.NormFloat64() * 5, rng.NormFloat64() * 5}
	}
	ctl := filter.Control{BatchSize: 4, InitVar: initVar, MaxStep: -1}
	identity := make([]int, atoms)
	for i := range identity {
		identity[i] = i
	}
	var sumHier, sumFlat float64
	for r := 0; r < replicates; r++ {
		p, prior := linearReplicate(rng, truth, initVar)
		root, err := Build(p.Tree, &p.Constraints)
		if err != nil {
			t.Fatal(err)
		}
		if err := root.Prepare(ctl.BatchSize); err != nil {
			t.Fatal(err)
		}
		s, err := onePass(root, prior, Options{Control: ctl})
		if err != nil {
			t.Fatal(err)
		}
		sumHier += nees(t, s, root.Atoms, truth)

		flat := filter.NewState(prior, initVar)
		batches, err := filter.MakeBatches(&p.Constraints, p.Constraints.AllRows(), func(a int) int { return a }, ctl.BatchSize)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := (&filter.Updater{}).ApplyLower(flat, batches, filter.Bound{}); err != nil {
			t.Fatal(err)
		}
		sumFlat += nees(t, flat, identity, truth)
	}
	dof := float64(3 * atoms * replicates)
	lo, hi := stats.Chi2Quantile(dof, -z995)/replicates, stats.Chi2Quantile(dof, z995)/replicates
	for _, c := range []struct {
		name string
		sum  float64
	}{{"hierarchical UpdatePass", sumHier}, {"flat ApplyLower", sumFlat}} {
		mean := c.sum / replicates
		t.Logf("%s: mean NEES %.2f over %d replicates, 99%% band [%.2f, %.2f] for %d coordinates", c.name, mean, replicates, lo, hi, 3*atoms)
		if mean < lo || mean > hi {
			t.Errorf("%s: mean NEES %.2f outside the 99%% band [%.2f, %.2f]", c.name, mean, lo, hi)
		}
	}
}
