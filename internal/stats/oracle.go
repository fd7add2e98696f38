package stats

import (
	"fmt"
	"math"

	"phmse/internal/geom"
)

// The solver's oracles. A change that must alter the solver's bits — a
// fused multiply-add, another summation order — is judged by how far it
// moves a converged answer in the answer's own units, not by a bit
// pattern: Compare measures that against a recorded reference. A change
// that must not alter the statistics of the answer is judged by a χ² band
// (Chi2Quantile).

// Estimate is one solve's answer as Compare reads it: each atom's position
// and summed coordinate variance, and the cycles the solve took.
type Estimate struct {
	Positions []geom.Vec3
	Variances []float64
	Cycles    int
}

// Drift is how far a candidate Estimate lies from a reference one.
type Drift struct {
	// Sigma is the largest |Δx| of an atom's position, in units of the
	// atom's reference posterior σ = √(summed coordinate variance).
	Sigma float64
	// RelVar is the largest |Δv|/v of an atom's summed variance v.
	RelVar float64
	// RefCycles and Cycles are the reference's and the candidate's cycle
	// counts.
	RefCycles, Cycles int
}

// Compare measures cand against ref, atom by atom. A difference that is
// not finite — a NaN or an infinity in either — reads as +Inf, so no
// tolerance passes it; an exact match reads 0 even where the reference
// variance is 0. It panics unless both hold the same number of atoms.
func Compare(ref, cand Estimate) Drift {
	n := len(ref.Positions)
	if len(cand.Positions) != n || len(ref.Variances) != n || len(cand.Variances) != n {
		panic("stats: Compare of estimates of different sizes")
	}
	d := Drift{RefCycles: ref.Cycles, Cycles: cand.Cycles}
	for a := 0; a < n; a++ {
		v := ref.Variances[a]
		dx := geom.Dist(ref.Positions[a], cand.Positions[a])
		d.Sigma = max(d.Sigma, ratio(dx, math.Sqrt(v)))
		d.RelVar = max(d.RelVar, ratio(math.Abs(cand.Variances[a]-v), math.Abs(v)))
	}
	return d
}

// ratio is num/den for Compare: 0 when num is 0, +Inf when the quotient is
// not a number.
func ratio(num, den float64) float64 {
	if num == 0 {
		return 0
	}
	if r := num / den; !math.IsNaN(r) {
		return r
	}
	return math.Inf(1)
}

func (d Drift) String() string {
	return fmt.Sprintf("max |Δx| %.3g σ, max |Δv|/v %.3g, cycles %d → %d", d.Sigma, d.RelVar, d.RefCycles, d.Cycles)
}

// Chi2Quantile is the Wilson–Hilferty approximation of the χ² quantile with
// k degrees of freedom at the standard normal quantile z:
// k·(1 − 2/(9k) + z·√(2/(9k)))³. Its relative error is 4e-4 at 100 degrees
// of freedom and 1e-5 at 1000, and falls further at the thousands a NEES
// band over many replicates uses.
func Chi2Quantile(k, z float64) float64 {
	v := 2 / (9 * k)
	c := 1 - v + z*math.Sqrt(v)
	return k * c * c * c
}
