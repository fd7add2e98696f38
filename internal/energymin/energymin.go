// Package energymin implements the energy-minimization baseline of the
// paper's related-work section (Levitt & Sharon [14]; Némethy & Scheraga
// [16], as compared in Liu et al. [15]): constraints become quadratic
// penalty terms E(x) = Σ ((z − h(x))/σ)², minimized by gradient descent
// with backtracking line search. Like distance geometry — and unlike the
// probabilistic estimator — it yields a single conformation with no
// uncertainty measure.
package energymin

import (
	"math"

	"phmse/internal/constraint"
	"phmse/internal/geom"
	"phmse/internal/sparse"
)

// Options configures the minimization; zero values select defaults.
type Options struct {
	MaxIters int     // maximum gradient steps (default 500)
	GradTol  float64 // stop when ‖∇E‖/√n falls below this (default 1e-4)
	Step     float64 // initial step size (default 1e-2)
}

func (o Options) withDefaults() Options {
	if o.MaxIters <= 0 {
		o.MaxIters = 500
	}
	if o.GradTol <= 0 {
		o.GradTol = 1e-4
	}
	if o.Step <= 0 {
		o.Step = 1e-2
	}
	return o
}

// Result reports the outcome of a minimization.
type Result struct {
	Iters     int
	Energy    float64 // final penalty energy
	GradNorm  float64 // RMS gradient at the final point
	Converged bool
}

// Minimize runs gradient descent on pos in place and returns the outcome.
// Bounds contribute only while violated, giving the flat-bottom
// penalty wells customary for bound restraints.
func Minimize(pos []geom.Vec3, cons *constraint.Set, opt Options) Result {
	opt = opt.withDefaults()
	n := len(pos)
	if n == 0 {
		return Result{Converged: true}
	}
	grad := make([]geom.Vec3, n)
	step := opt.Step
	energy := EnergyGrad(pos, cons, grad)
	res := Result{Energy: energy}
	for iter := 0; iter < opt.MaxIters; iter++ {
		res.Iters = iter + 1
		gnorm := gradRMS(grad)
		res.GradNorm = gnorm
		if gnorm < opt.GradTol {
			res.Converged = true
			break
		}
		// Backtracking line search along −∇E.
		improved := false
		for try := 0; try < 25; try++ {
			trial := make([]geom.Vec3, n)
			for i := range trial {
				trial[i] = pos[i].Sub(grad[i].Scale(step))
			}
			trialGrad := make([]geom.Vec3, n)
			trialE := EnergyGrad(trial, cons, trialGrad)
			if trialE < energy {
				copy(pos, trial)
				copy(grad, trialGrad)
				energy = trialE
				improved = true
				step *= 1.5 // cautious acceleration
				break
			}
			step *= 0.5
		}
		res.Energy = energy
		if !improved {
			res.Converged = res.GradNorm < 10*opt.GradTol
			break
		}
	}
	return res
}

// EnergyGrad computes the penalty energy and writes its gradient (zeroed
// first) into grad, which must have one entry per atom.
func EnergyGrad(pos []geom.Vec3, cons *constraint.Set, grad []geom.Vec3) float64 {
	for i := range grad {
		grad[i] = geom.Vec3{}
	}
	lin := constraint.Lin{Jac: sparse.NewBuilder(3 * len(pos))}
	cons.Eval(cons.AllRows(), nil, geom.Flat(pos), &lin)
	jac := lin.Jac.Build()
	g := geom.Flat(grad)
	total := 0.0
	for d, s2 := range lin.R {
		if s2 <= 0 {
			continue
		}
		diff := lin.Z[d] - lin.H[d]
		if lin.Wrap[d] {
			diff = wrapAngle(diff)
		}
		total += diff * diff / s2
		// ∂E/∂x = −2(z−h)/σ² · ∂h/∂x.
		coeff := -2 * diff / s2
		cols, vals := jac.Row(d)
		for k, c := range cols {
			g[c] += coeff * vals[k]
		}
	}
	return total
}

// Energy returns the penalty energy alone.
func Energy(pos []geom.Vec3, cons *constraint.Set) float64 {
	grad := make([]geom.Vec3, len(pos))
	return EnergyGrad(pos, cons, grad)
}

// wrapAngle maps an angular difference into (−π, π].
func wrapAngle(d float64) float64 {
	for d > math.Pi {
		d -= 2 * math.Pi
	}
	for d <= -math.Pi {
		d += 2 * math.Pi
	}
	return d
}

func gradRMS(grad []geom.Vec3) float64 {
	s := 0.0
	for _, g := range grad {
		s += g.Norm2()
	}
	return math.Sqrt(s / float64(3*len(grad)))
}
