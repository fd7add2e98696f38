package core

import (
	"context"
	"testing"

	"phmse/internal/constraint"
	"phmse/internal/geom"
	"phmse/internal/molecule"
)

// baseProblem returns the anchored helix used throughout the warm-start
// tests: small enough to solve quickly, constrained enough to converge.
func baseProblem() *molecule.Problem {
	return molecule.WithAnchors(molecule.Helix(2), 4, 0.05)
}

// withExtraConstraints returns a new problem over the same molecule with a
// handful of additional distance measurements sampled from the reference
// geometry — the "new data arrived" half of an incremental-refinement
// cycle. The atom set and grouping are untouched, so the structure hash
// (and therefore posterior compatibility) is preserved.
func withExtraConstraints(p *molecule.Problem, pairs [][2]int, sigma float64) *molecule.Problem {
	cons := append([]constraint.Constraint(nil), p.Constraints...)
	for _, pr := range pairs {
		d := geom.Dist(p.Atoms[pr[0]].Pos, p.Atoms[pr[1]].Pos)
		cons = append(cons, constraint.Distance{I: pr[0], J: pr[1], Target: d, Sigma: sigma})
	}
	return &molecule.Problem{Name: p.Name + "+extra", Atoms: p.Atoms, Constraints: cons, Tree: p.Tree}
}

// extraPairs picks a few long-range pairs that are not already directly
// constrained in the helix problem.
func extraPairs(p *molecule.Problem) [][2]int {
	n := len(p.Atoms)
	return [][2]int{
		{0, n - 1},
		{1, n - 2},
		{2, n / 2},
		{n / 4, 3 * n / 4},
	}
}

// TestWarmStartFewerCycles is the warm-start acceptance check: solving the
// extended problem from the base problem's converged posterior must take
// strictly fewer cycles than solving it cold, in both organizations.
func TestWarmStartFewerCycles(t *testing.T) {
	for _, mode := range []Mode{Flat, Hierarchical} {
		t.Run(mode.String(), func(t *testing.T) {
			base := baseProblem()
			if mode == Flat {
				// The flat organization converges much more slowly; keep its
				// subtest on the one-base-pair helix.
				base = molecule.WithAnchors(molecule.Helix(1), 4, 0.05)
			}
			combined := withExtraConstraints(base, extraPairs(base), 0.1)
			cfg := Config{Mode: mode, MaxCycles: 500}

			est, err := New(base, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sol, err := est.Solve(molecule.Perturbed(base, 0.5, 17))
			if err != nil {
				t.Fatal(err)
			}
			if !sol.Converged {
				t.Fatalf("base solve did not converge: %d cycles", sol.Cycles)
			}
			post := sol.Posterior()

			coldEst, err := New(combined, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := coldEst.Solve(molecule.Perturbed(combined, 0.5, 17))
			if err != nil {
				t.Fatal(err)
			}
			if !cold.Converged {
				t.Fatalf("cold combined solve did not converge: %d cycles", cold.Cycles)
			}

			warmEst, err := New(combined, cfg)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := warmEst.SolveFrom(context.Background(), post)
			if err != nil {
				t.Fatal(err)
			}
			if !warm.Converged {
				t.Fatalf("warm combined solve did not converge: %d cycles", warm.Cycles)
			}
			if warm.Cycles >= cold.Cycles {
				t.Fatalf("warm start took %d cycles, cold solve %d — warm must be strictly fewer",
					warm.Cycles, cold.Cycles)
			}
			// The shortcut must not cost accuracy: the warm solution has to
			// satisfy the combined constraint set about as well as the cold one.
			if warm.Residual > 2*cold.Residual+0.5 {
				t.Fatalf("warm residual %.4f far above cold residual %.4f", warm.Residual, cold.Residual)
			}
			t.Logf("mode=%s: cold %d cycles (residual %.4f), warm %d cycles (residual %.4f)",
				mode, cold.Cycles, cold.Residual, warm.Cycles, warm.Residual)
		})
	}
}

// TestWarmStartContinuationNoCliff pins the continuation semantics of a
// warm solve: re-solving the *same* problem from its own converged
// posterior must re-converge in a handful of cycles. Under the earlier
// first-cycle-only design, whenever the first warm cycle's change landed
// just above Tol the diffuse covariance reset of cycle 2 kicked the
// near-converged state back onto the cold iteration's slow transient and
// the warm solve took longer than cold (39 vs 30 cycles on exactly this
// problem and seed).
func TestWarmStartContinuationNoCliff(t *testing.T) {
	base := baseProblem()
	cfg := Config{Mode: Hierarchical, MaxCycles: 500}
	est, err := New(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Perturb 0.4 with seed 17 is the combination whose first warm cycle
	// historically exceeded Tol (RMS change 0.0085 > 1e-3).
	cold, err := est.Solve(molecule.Perturbed(base, 0.4, 17))
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Converged {
		t.Fatalf("cold solve did not converge: %d cycles", cold.Cycles)
	}
	warmEst, err := New(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := warmEst.SolveFrom(context.Background(), cold.Posterior())
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Converged {
		t.Fatalf("warm re-solve did not converge: %d cycles", warm.Cycles)
	}
	if warm.Cycles > 8 || warm.Cycles >= cold.Cycles {
		t.Fatalf("warm re-solve of the same problem took %d cycles (cold %d) — continuation should re-converge almost immediately",
			warm.Cycles, cold.Cycles)
	}
	if warm.Residual > 2*cold.Residual+0.5 {
		t.Fatalf("warm residual %.4f far above cold residual %.4f", warm.Residual, cold.Residual)
	}
	t.Logf("cold %d cycles (residual %.4f), warm re-solve %d cycles (residual %.4f)",
		cold.Cycles, cold.Residual, warm.Cycles, warm.Residual)
}

// TestPosteriorExportOrdering checks that Posterior() undoes the solver's
// internal atom permutation — exported positions and variances must agree
// with the solution's problem-order fields and with the state's diagonal —
// and that it keeps what its organization's warm start reads: no full
// covariance for a hierarchical solve, the symmetric 3n×3n for a flat one.
func TestPosteriorExportOrdering(t *testing.T) {
	for _, mode := range []Mode{Flat, Hierarchical} {
		t.Run(mode.String(), func(t *testing.T) {
			p := baseProblem()
			est, err := New(p, Config{Mode: mode, MaxCycles: 12})
			if err != nil {
				t.Fatal(err)
			}
			sol, err := est.Solve(molecule.Perturbed(p, 0.5, 17))
			if err != nil {
				t.Fatal(err)
			}
			post := sol.Posterior()
			if len(post.Positions) != len(p.Atoms) || len(post.CoordVariances) != 3*len(p.Atoms) {
				t.Fatalf("posterior sizes: %d positions, %d variances", len(post.Positions), len(post.CoordVariances))
			}
			for i := range post.Positions {
				if post.Positions[i] != sol.Positions[i] {
					t.Fatalf("atom %d: posterior position %v != solution position %v", i, post.Positions[i], sol.Positions[i])
				}
				sum := post.CoordVariances[3*i] + post.CoordVariances[3*i+1] + post.CoordVariances[3*i+2]
				if diff := sum - sol.Variances[i]; diff > 1e-12 || diff < -1e-12 {
					t.Fatalf("atom %d: posterior variance sum %g != solution variance %g", i, sum, sol.Variances[i])
				}
				for c := 0; c < 3; c++ {
					d := 3*sol.local[i] + c
					if post.CoordVariances[3*i+c] != sol.state.C.At(d, d) {
						t.Fatalf("atom %d coord %d: CoordVariances disagrees with the state diagonal", i, c)
					}
				}
			}
			if mode == Hierarchical {
				if post.Cov != nil {
					t.Fatalf("hierarchical posterior carries a %d×%d covariance", post.Cov.Rows, post.Cov.Cols)
				}
				if want := int64(48 * len(p.Atoms)); post.Bytes() != want {
					t.Fatalf("hierarchical posterior accounts %d bytes, want %d", post.Bytes(), want)
				}
				return
			}
			n := 3 * len(p.Atoms)
			if post.Cov == nil || post.Cov.Rows != n || post.Cov.Cols != n {
				t.Fatalf("flat posterior covariance is %v, want %d×%d", post.Cov, n, n)
			}
			// The exported covariance must be symmetric (it is a permutation
			// of a symmetric matrix) with the exported diagonal.
			for i := 0; i < n; i++ {
				if post.Cov.At(i, i) != post.CoordVariances[i] {
					t.Fatalf("coord %d: covariance diagonal disagrees with CoordVariances", i)
				}
				for j := i + 1; j < n; j++ {
					if post.Cov.At(i, j) != post.Cov.At(j, i) {
						t.Fatalf("exported covariance not symmetric at (%d,%d)", i, j)
					}
				}
			}
		})
	}
}

// TestFlatWarmStartFromHierarchicalPosterior: a flat re-solve handed a
// hierarchical (diagonal-only) posterior continues from that diagonal and
// still beats the cold flat solve.
func TestFlatWarmStartFromHierarchicalPosterior(t *testing.T) {
	p := molecule.WithAnchors(molecule.Helix(1), 4, 0.05)
	hierEst, err := New(p, Config{Mode: Hierarchical, MaxCycles: 500})
	if err != nil {
		t.Fatal(err)
	}
	base, err := hierEst.Solve(molecule.Perturbed(p, 0.5, 17))
	if err != nil {
		t.Fatal(err)
	}
	post := base.Posterior()
	if !base.Converged || post.Cov != nil {
		t.Fatalf("base solve: converged %v, covariance %v", base.Converged, post.Cov)
	}
	cfg := Config{Mode: Flat, MaxCycles: 500}
	coldEst, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := coldEst.Solve(molecule.Perturbed(p, 0.5, 17))
	if err != nil {
		t.Fatal(err)
	}
	warmEst, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := warmEst.SolveFrom(context.Background(), post)
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Converged || !warm.Converged {
		t.Fatalf("converged: cold %v (%d cycles), warm %v (%d cycles)", cold.Converged, cold.Cycles, warm.Converged, warm.Cycles)
	}
	if warm.Cycles >= cold.Cycles {
		t.Fatalf("flat warm start from a diagonal took %d cycles, cold %d", warm.Cycles, cold.Cycles)
	}
	if warm.Residual > 2*cold.Residual+0.5 {
		t.Fatalf("warm residual %.4f far above cold residual %.4f", warm.Residual, cold.Residual)
	}
	if warm.Posterior().Cov == nil {
		t.Fatal("a flat solve keeps its full covariance whatever it started from")
	}
	t.Logf("flat: cold %d cycles, warm from hierarchical diagonal %d cycles", cold.Cycles, warm.Cycles)
}

// TestSolveFromValidation rejects posteriors that do not fit the problem.
func TestSolveFromValidation(t *testing.T) {
	p := baseProblem()
	est, err := New(p, Config{Mode: Hierarchical})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := est.SolveFrom(ctx, nil); err == nil {
		t.Fatal("nil posterior accepted")
	}
	short := &Posterior{Positions: make([]geom.Vec3, len(p.Atoms)-1)}
	if _, err := est.SolveFrom(ctx, short); err == nil {
		t.Fatal("short posterior accepted")
	}
	badVars := &Posterior{
		Positions:      p.TruePositions(),
		CoordVariances: make([]float64, 5),
	}
	if _, err := est.SolveFrom(ctx, badVars); err == nil {
		t.Fatal("mis-sized variance vector accepted")
	}
}
