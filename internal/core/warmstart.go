package core

// Warm-start re-solve: the estimator's constraint-application cycles are a
// fixed-point iteration, so nothing forces them to start from the
// perturbed-prior initialisation — they can continue from any prior
// posterior (x, C). That turns repeated estimation into incremental
// refinement: as new measurements arrive, re-solving the extended problem
// from the previous posterior re-converges in far fewer cycles than a cold
// solve, the standard sequential-assimilation pattern of Kalman updating.
// This file defines the exported posterior form and the SolveFrom entry
// that consumes it.

import (
	"context"
	"fmt"

	"phmse/internal/filter"
	"phmse/internal/geom"
	"phmse/internal/hier"
	"phmse/internal/mat"
)

// Posterior is a structure estimate exported in problem atom order: the
// posterior mean positions, the covariance diagonal and, for a flat solve,
// the full covariance matrix — what a warm start of the producing
// organization reads, decided once where it is produced (Solution.Posterior)
// and carried unchanged by everything that retains, persists or moves it.
// Either organization can continue from either form.
type Posterior struct {
	// Positions is the posterior mean, one entry per problem atom.
	Positions []geom.Vec3
	// CoordVariances holds one variance per coordinate (3 per atom, laid
	// out x₀,y₀,z₀,x₁,…) — the covariance diagonal in problem order.
	CoordVariances []float64
	// Cov is the full posterior covariance (3n×3n, problem coordinate
	// order), nil for a hierarchical solve: flat warm starts — a tree of
	// one leaf — continue from it (from the diagonal when it is absent);
	// hierarchical warm starts use only CoordVariances, because the
	// hierarchy rebuilds cross-node covariance from its own constraints.
	Cov *mat.Mat
}

// Bytes returns the approximate heap footprint of the posterior, the
// accounting unit of the serving layer's bounded posterior store: 48n
// bytes for an n-atom hierarchical posterior, plus 8·(3n)² for the full
// covariance of a flat one.
func (p *Posterior) Bytes() int64 {
	b := int64(24 * len(p.Positions))
	b += int64(8 * len(p.CoordVariances))
	if p.Cov != nil {
		b += int64(8 * len(p.Cov.Data))
	}
	return b
}

// Posterior exports the solution's posterior in problem atom order,
// permuting out of the solver's internal state ordering: positions and the
// covariance diagonal, O(n), for a hierarchical solve; those plus the full
// covariance for a flat solve. The returned value shares nothing with the
// solution and is safe to retain.
func (s *Solution) Posterior() *Posterior {
	n := len(s.local)
	post := &Posterior{
		Positions:      append([]geom.Vec3(nil), s.Positions...),
		CoordVariances: make([]float64, 3*n),
	}
	// perm maps problem coordinate -> state coordinate.
	perm := make([]int, 3*n)
	for a, la := range s.local {
		for c := 0; c < 3; c++ {
			perm[3*a+c] = 3*la + c
		}
	}
	for i, pi := range perm {
		post.CoordVariances[i] = s.state.C.At(pi, pi)
	}
	if s.mode != Flat {
		return post
	}
	post.Cov = mat.New(3*n, 3*n)
	for i, pi := range perm {
		row := post.Cov.Row(i)
		for j, pj := range perm {
			row[j] = s.state.Cov(pi, pj)
		}
	}
	return post
}

// SolveFrom estimates the structure starting from a supplied posterior
// instead of an initial position guess: the solve continues the
// assimilation from (x, C) and never performs the cold solve's diffuse
// per-cycle covariance reset, so the uncertainty (and with it the step
// size) shrinks monotonically across cycles. A tree of one leaf holding
// every atom — the flat organization — continues the whole covariance
// from the posterior's (from its diagonal when the posterior came from a
// hierarchical solve); any other tree injects the diagonal at its leaves
// (hier.Prior). The posterior must cover the estimator's problem
// atom-for-atom; constraint sets may differ freely, which is what makes
// incremental refinement work.
func (e *Estimator) SolveFrom(ctx context.Context, post *Posterior) (*Solution, error) {
	if post == nil {
		return nil, fmt.Errorf("core: nil posterior")
	}
	n := len(e.problem.Atoms)
	if len(post.Positions) != n {
		return nil, fmt.Errorf("core: posterior has %d atoms, problem has %d", len(post.Positions), n)
	}
	if post.CoordVariances != nil && len(post.CoordVariances) != 3*n {
		return nil, fmt.Errorf("core: posterior has %d coordinate variances, want %d", len(post.CoordVariances), 3*n)
	}
	if post.Cov != nil && (post.Cov.Rows != 3*n || post.Cov.Cols != 3*n) {
		return nil, fmt.Errorf("core: posterior covariance is %d×%d, want %d×%d",
			post.Cov.Rows, post.Cov.Cols, 3*n, 3*n)
	}
	warm := hier.Prior{Vars: post.CoordVariances}
	switch {
	case e.root == nil:
		return nil, fmt.Errorf("core: estimator closed")
	case e.root.IsLeaf() && len(e.root.Atoms) == n:
		// A leaf holding every atom lays them out in problem order.
		warm = hier.Prior{Cov: post.Cov}
		if warm.Cov == nil && post.CoordVariances != nil {
			warm.Cov = mat.New(3*n, 3*n)
			for d, v := range post.CoordVariances {
				warm.Cov.Set(d, d, max(v, filter.MinWarmVar))
			}
		}
	case warm.Vars == nil && post.Cov != nil:
		warm.Vars = make([]float64, 3*n)
		for i := range warm.Vars {
			warm.Vars[i] = post.Cov.At(i, i)
		}
	}
	return e.solve(ctx, post.Positions, warm)
}
