package filter

import (
	"context"
	"math"

	"phmse/internal/constraint"
	"phmse/internal/geom"
	"phmse/internal/mat"
	"phmse/internal/par"
	"phmse/internal/solvererr"
	"phmse/internal/trace"
)

// Control is the solver's control block: batch dimension, stopping policy,
// update variant and hooks, declared once for both organizations. Solve
// runs the flat organization under it and hier.Solve the hierarchical one,
// both through Iterate.
type Control struct {
	// BatchSize is the scalar constraint batch dimension (default 16, the
	// optimum identified by the paper's Table 2 experiment).
	BatchSize int
	// MaxCycles caps the number of complete passes over the constraint set
	// (the paper reports 20–200 cycles to convergence; default 100).
	MaxCycles int
	// Tol stops the iteration when the RMS coordinate change over one
	// cycle falls below it (default 1e-3 Å).
	Tol float64
	// InitVar is the isotropic coordinate variance a cold solve starts
	// every cycle from — the flat covariance reset, the hierarchy's leaf
	// priors (default 100 Å²).
	InitVar float64
	// Team provides intra-update parallelism and, in the hierarchy, the
	// processors the plan splits over subtrees (default: sequential).
	Team *par.Team
	// Rec, when non-nil, accumulates per-operation-class timing.
	Rec *trace.Collector
	// MaxStep clamps each batch's state update to this infinity-norm trust
	// radius (see Updater.MaxStep). Zero selects the default of 2 Å, which
	// keeps the iterated filter inside its linearization range; negative
	// disables the clamp (the paper's raw update).
	MaxStep float64
	// Joseph selects the numerically robust Joseph-form covariance update
	// (see Updater.Joseph).
	Joseph bool
	// GateSigma, when positive, enables innovation gating of outlier
	// observations (see Updater.GateSigma).
	GateSigma float64
	// Ctx, when non-nil, is checked between cycles: a cancelled or expired
	// context stops the iteration with the context's error and the
	// progress made so far.
	Ctx context.Context
	// OnCycle, when non-nil, is called after every completed cycle with the
	// 1-based cycle number and the RMS coordinate change over that cycle —
	// the hook the serving layer uses for cycle-level progress reporting.
	OnCycle func(cycle int, rmsChange float64)
	// Diag, when non-nil, is the containment-diagnostics sink to report
	// into (safe for the tree's parallel subtree updates); WithDefaults
	// creates one when nil, so Result.Diag is always populated.
	Diag *Diagnostics
	// DivergeAfter is the divergence watchdog: the solve aborts with a
	// typed solvererr.Diverged (carrying the RMS trajectory) when the
	// per-cycle RMS change grows for this many consecutive cycles —
	// replacing a silent MaxCycles spin on an inconsistent problem. Zero
	// selects the default of 8; negative disables the watchdog.
	DivergeAfter int
	// NoGuard disables numerical fault containment (ridge retries,
	// non-finite rollback, batch quarantine), restoring the raw
	// fail-fast iteration.
	NoGuard bool
	// FaultTag labels the solve for fault-injection sites (normally the
	// problem name).
	FaultTag string
}

// DefaultDivergeAfter is the default watchdog patience: consecutive
// cycles of growing RMS change before the solve is declared diverged.
const DefaultDivergeAfter = 8

// DivergeGrowthFactor is the cumulative growth a streak of growing RMS
// changes must reach before the watchdog declares divergence. Converging
// iterations can oscillate with long gentle upswings (fractions of a
// percent per cycle); a genuine runaway grows geometrically and clears
// this factor within a few cycles.
const DivergeGrowthFactor = 10.0

// DefaultMaxStep is the default per-batch trust radius (Å).
const DefaultMaxStep = 2.0

// MinWarmVar floors the prior variances a warm start injects (Å²), so a
// perfectly determined coordinate cannot produce a singular prior.
const MinWarmVar = 1e-9

// WithDefaults fills every unset field with its default. It is idempotent:
// zero selects a default, and a negative MaxStep or DivergeAfter stays
// negative and means "off", so a control block may pass through any number
// of entry points that each normalise it.
func (c Control) WithDefaults() Control {
	if c.BatchSize <= 0 {
		c.BatchSize = DefaultBatchSize
	}
	if c.MaxCycles <= 0 {
		c.MaxCycles = 100
	}
	if c.Tol <= 0 {
		c.Tol = 1e-3
	}
	if c.InitVar <= 0 {
		c.InitVar = 100
	}
	if c.Team == nil {
		c.Team = par.NewTeam(1)
	}
	if c.MaxStep == 0 {
		c.MaxStep = DefaultMaxStep
	}
	if c.DivergeAfter == 0 {
		c.DivergeAfter = DefaultDivergeAfter
	}
	if c.Diag == nil {
		c.Diag = &Diagnostics{}
	}
	return c
}

// Updater returns the batch updater of a normalised control block for one
// node's pass (node is "" in the flat organization) on the given team in
// the given 1-based cycle.
func (c Control) Updater(team *par.Team, node string, cycle int) *Updater {
	return &Updater{
		Team: team, Rec: c.Rec, MaxStep: c.MaxStep, Joseph: c.Joseph, GateSigma: c.GateSigma,
		Guard: !c.NoGuard, Diag: c.Diag, Tag: c.FaultTag, Node: node, Cycle: cycle,
	}
}

// Result summarizes a run of the convergence driver.
type Result struct {
	Cycles    int     // complete passes over the constraint set
	Converged bool    // RMS change fell below Tol before MaxCycles
	RMSChange float64 // RMS coordinate change over the final cycle
	Residual  float64 // RMS weighted constraint residual at the solution
	// Diag is the containment-diagnostics sink of the run (never nil):
	// ridge retries, rollbacks, quarantined batches, RMS trajectory.
	Diag *Diagnostics
}

// Iterate is the convergence driver, the one cycle loop both organizations
// run under: because of the nonlinear measurement functions the cycle of
// updates repeats until the estimate reaches an equilibrium point. pass
// applies the whole constraint set once, as the given 1-based cycle, and
// returns the RMS coordinate change it caused; what it reports into Diag
// must go to the normalised control block's sink. Every cycle tests the
// exits in this order: Ctx ended (before the pass; its error, with the
// progress so far), the pass failed (its error), no progress (typed
// NonFinite or Indefinite), converged (RMS change below Tol), diverged
// (typed Diverged); MaxCycles passes end the loop.
func (c Control) Iterate(pass func(cycle int) (rmsChange float64, err error)) (Result, error) {
	c = c.WithDefaults()
	res := Result{Diag: c.Diag}
	grew, prevRMS, streakBase := 0, math.Inf(1), 0.0
	for cycle := 1; cycle <= c.MaxCycles; cycle++ {
		if c.Ctx != nil {
			if err := c.Ctx.Err(); err != nil {
				return res, err
			}
		}
		c.Diag.BeginCycle()
		rms, err := pass(cycle)
		if err != nil {
			return res, err
		}
		res.Cycles, res.RMSChange = cycle, rms
		stats := c.Diag.EndCycle(rms)
		if c.OnCycle != nil {
			c.OnCycle(cycle, rms)
		}
		// No-progress policy: quarantine contains isolated bad batches,
		// but a cycle in which every batch was excluded assimilated
		// nothing and never will — fail with the class of the exclusions.
		if !c.NoGuard && stats.Applied == 0 && stats.Quarantined > 0 {
			if stats.Reason == ReasonNonFinite {
				return res, &solvererr.NonFinite{Node: stats.Node, Batch: stats.Batch, Cycle: cycle}
			}
			return res, &solvererr.Indefinite{Node: stats.Node, Batch: stats.Batch, Retries: maxRidgeRetries}
		}
		if rms < c.Tol {
			res.Converged = true
			return res, nil
		}
		// Divergence watchdog: DivergeAfter consecutive cycles of growing
		// RMS change, compounding past the growth factor, mean the
		// iteration is running away from any fixed point.
		if rms > prevRMS {
			if grew == 0 {
				streakBase = prevRMS
			}
			grew++
		} else {
			grew = 0
		}
		prevRMS = rms
		if c.DivergeAfter > 0 && grew >= c.DivergeAfter && rms > DivergeGrowthFactor*streakBase {
			return res, &solvererr.Diverged{Cycles: cycle, Grew: grew, History: c.Diag.RMSTrajectory()}
		}
	}
	return res, nil
}

// Solve estimates the structure from all constraints in the flat (single
// node) organization. A cold solve re-initializes the covariance to InitVar
// at the start of every cycle. With warm set, s is a prior posterior (x, C)
// from an earlier solve and the assimilation continues from it: the
// covariance is never re-initialised — the first cycle keeps it as given and
// every later cycle carries the evolving posterior forward, so new
// measurements always update from the existing uncertainty rather than from
// a diffuse prior (the sequential Kalman-updating pattern). Re-introducing
// the diffuse reset mid-solve would kick a near-converged state back onto
// the cold iteration's slow transient; continuation keeps the steps
// shrinking monotonically instead.
func Solve(s *State, cons []constraint.Constraint, ctl Control, warm bool) (Result, error) {
	ctl = ctl.WithDefaults()
	batches, err := MakeBatches(cons, func(a int) int { return a }, ctl.BatchSize)
	if err != nil {
		return Result{Diag: ctl.Diag}, err
	}
	u := ctl.Updater(ctl.Team, "", 0)
	defer u.ReleaseWorkspace()
	prev := append([]float64(nil), s.X...)
	diff := make([]float64, len(prev))
	res, err := ctl.Iterate(func(cycle int) (float64, error) {
		if !warm {
			s.ResetCovariance(ctl.InitVar)
		}
		u.Cycle = cycle
		if _, err := u.ApplyAll(s, batches); err != nil {
			return 0, err
		}
		mat.SubVec(diff, s.X, prev)
		copy(prev, s.X)
		return mat.RMS(diff), nil
	})
	res.Residual = WeightedResidual(s.Positions(), cons)
	return res, err
}

// WeightedResidual returns the RMS of (z − h(x))/σ over all scalar
// observations at the given atom positions (inactive gated constraints
// contribute zero).
func WeightedResidual(pos []geom.Vec3, cons []constraint.Constraint) float64 {
	sum, count := 0.0, 0
	for _, c := range cons {
		sum += residualOf(pos, c)
		count += c.Dim()
	}
	if count == 0 {
		return 0
	}
	return math.Sqrt(sum / float64(count))
}

func residualOf(all []geom.Vec3, c constraint.Constraint) float64 {
	atoms := c.Atoms()
	pos := make([]geom.Vec3, len(atoms))
	for k, a := range atoms {
		pos[k] = all[a]
	}
	if g, ok := c.(constraint.Gated); ok && !g.Active(pos) {
		return 0
	}
	dim := c.Dim()
	h := make([]float64, dim)
	jac := make([][]float64, dim)
	for d := range jac {
		jac[d] = make([]float64, 3*len(atoms))
	}
	c.Eval(pos, h, jac)
	z := make([]float64, dim)
	r := make([]float64, dim)
	c.Observed(z, r)
	var wrap []bool
	if p, ok := c.(constraint.Periodic); ok {
		wrap = p.PeriodicRows()
	}
	sum := 0.0
	for d := 0; d < dim; d++ {
		diff := z[d] - h[d]
		if wrap != nil && wrap[d] {
			diff = wrapAngle(diff)
		}
		if r[d] > 0 {
			sum += diff * diff / r[d]
		}
	}
	return sum
}
