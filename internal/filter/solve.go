package filter

import (
	"context"
	"math"

	"phmse/internal/constraint"
	"phmse/internal/geom"
	"phmse/internal/par"
	"phmse/internal/trace"
)

// Control is the solver's control block: batch dimension, stopping policy,
// trust radius and hooks, declared once for both organizations, which
// hier.Solve runs through Iterate — the flat one as a tree of one leaf.
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
	// every cycle from — the leaves' and direct atoms' priors (default
	// 100 Å²).
	InitVar float64
	// Team provides intra-update parallelism and, in the hierarchy, the
	// processors concurrent child subtrees share (default: sequential).
	Team *par.Team
	// Rec, when non-nil, accumulates per-operation-class timing.
	Rec *trace.Collector
	// MaxStep clamps each batch's state update to this infinity-norm trust
	// radius (see Updater.MaxStep). Zero selects the default of 2 Å, which
	// keeps the iterated filter inside its linearization range; negative
	// disables the clamp (the paper's raw update).
	MaxStep float64
	// Ctx, when non-nil, is checked between cycles: a cancelled or expired
	// context stops the iteration with the context's error and the
	// progress made so far.
	Ctx context.Context
	// OnCycle, when non-nil, is called after every completed cycle with the
	// 1-based cycle number and the RMS coordinate change over that cycle —
	// the hook the serving layer uses for cycle-level progress reporting.
	OnCycle func(cycle int, rmsChange float64)
	// FaultTag labels the solve for fault-injection sites (normally the
	// problem name).
	FaultTag string
	// diag is the containment-diagnostics sink the run reports into (safe
	// for the tree's parallel subtree updates); WithDefaults creates it, so
	// Result.Diag is always populated.
	diag *Diagnostics
}

// DefaultDivergeAfter is the divergence watchdog's patience: the solve
// aborts with a typed Diverged (carrying the RMS trajectory) when
// the per-cycle RMS change grows for this many consecutive cycles —
// replacing a silent MaxCycles spin on an inconsistent problem.
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
// zero selects a default, and a negative MaxStep stays negative and means
// "off", so a control block may pass through any number of entry points
// that each normalise it.
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
	if c.diag == nil {
		c.diag = &Diagnostics{}
	}
	return c
}

// Updater returns the batch updater of a normalised control block for one
// node's pass (the flat organization's one leaf is named "") on the given
// team in the given 1-based cycle.
func (c Control) Updater(team *par.Team, node string, cycle int) *Updater {
	return &Updater{
		Team: team, Rec: c.Rec, MaxStep: c.MaxStep, Guard: true,
		Diag: c.diag, Tag: c.FaultTag, Node: node, Cycle: cycle,
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
// returns the RMS coordinate change it caused, reporting through the
// normalised control block's Updater. Every cycle tests the
// exits in this order: Ctx ended (before the pass; its error, with the
// progress so far), the pass failed (its error), no progress (typed
// NonFinite or Indefinite), converged (RMS change below Tol), diverged
// (typed Diverged); MaxCycles passes end the loop.
func (c Control) Iterate(pass func(cycle int) (rmsChange float64, err error)) (Result, error) {
	c = c.WithDefaults()
	res := Result{Diag: c.diag}
	grew, prevRMS, streakBase := 0, math.Inf(1), 0.0
	for cycle := 1; cycle <= c.MaxCycles; cycle++ {
		if c.Ctx != nil {
			if err := c.Ctx.Err(); err != nil {
				return res, err
			}
		}
		c.diag.BeginCycle()
		rms, err := pass(cycle)
		if err != nil {
			return res, err
		}
		res.Cycles, res.RMSChange = cycle, rms
		stats := c.diag.EndCycle(rms)
		if c.OnCycle != nil {
			c.OnCycle(cycle, rms)
		}
		// No-progress policy: quarantine contains isolated bad batches,
		// but a cycle in which every batch was excluded assimilated
		// nothing and never will — fail with the class of the exclusions.
		if stats.Applied == 0 && stats.Quarantined > 0 {
			if stats.Reason == ReasonNonFinite {
				return res, &NonFinite{Node: stats.Node, Batch: stats.Batch, Cycle: cycle}
			}
			return res, &Indefinite{Node: stats.Node, Batch: stats.Batch, Retries: maxRidgeRetries}
		}
		if rms < c.Tol {
			res.Converged = true
			return res, nil
		}
		// Divergence watchdog: DefaultDivergeAfter consecutive cycles of
		// growing RMS change, compounding past the growth factor, mean the
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
		if grew >= DefaultDivergeAfter && rms > DivergeGrowthFactor*streakBase {
			return res, &Diverged{Cycles: cycle, Grew: grew, History: c.diag.RMSTrajectory()}
		}
	}
	return res, nil
}

// WeightedResidual returns the RMS of (z − h(x))/σ over all scalar
// observations at the given atom positions (inactive gated constraints
// contribute zero).
func WeightedResidual(pos []geom.Vec3, cons *constraint.Set) float64 {
	count := cons.ScalarDim()
	if count == 0 {
		return 0
	}
	x := geom.Flat(pos)
	var lin constraint.Lin
	row := make([]int32, 1)
	sum := 0.0
	for r := range cons.Len() {
		row[0] = int32(r)
		lin.Reset()
		cons.Eval(row, nil, x, &lin)
		part := 0.0 // one row's sum, as it was added when rows were values
		for d, z := range lin.Z {
			diff := z - lin.H[d]
			if lin.Wrap[d] {
				diff = wrapAngle(diff)
			}
			if lin.R[d] > 0 {
				part += diff * diff / lin.R[d]
			}
		}
		sum += part
	}
	return math.Sqrt(sum / float64(count))
}
