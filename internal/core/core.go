// Package core assembles the paper's method into a single estimator: given
// a structure-estimation problem, it solves for atomic coordinates and
// their uncertainty using either the flat organization (§2) or the parallel
// hierarchical organization (§3–4), with intra-node parallel matrix
// kernels, inter-node subtree parallelism under the static processor
// assignment heuristic, and optional automatic decomposition of flat
// problem specifications.
package core

import (
	"context"
	"fmt"

	"phmse/internal/analysis"
	"phmse/internal/conform"
	"phmse/internal/filter"
	"phmse/internal/geom"
	"phmse/internal/hier"
	"phmse/internal/molecule"
	"phmse/internal/par"
	"phmse/internal/sched"
	"phmse/internal/trace"
	"phmse/internal/workest"
)

// Mode selects the problem organization.
type Mode int

// The two organizations compared throughout the paper.
const (
	// Flat treats the molecule as one long vector of atoms (§2).
	Flat Mode = iota
	// Hierarchical decomposes the molecule recursively and applies every
	// constraint at the smallest containing node (§3).
	Hierarchical
)

func (m Mode) String() string {
	if m == Flat {
		return "flat"
	}
	return "hierarchical"
}

// Config configures an Estimator. The zero value selects the paper's
// defaults: hierarchical organization, batch dimension 16, one processor.
type Config struct {
	Mode Mode
	// Procs is the number of logical processors (goroutine team size).
	Procs int
	// BatchSize is the scalar constraint batch dimension (default 16).
	BatchSize int
	// MaxCycles bounds the constraint-application cycles (default 100).
	MaxCycles int
	// Tol is the RMS coordinate change declaring convergence (default 1e-3).
	Tol float64
	// InitVar is the per-coordinate prior variance in Å² (default 100).
	InitVar float64
	// Recorder, when non-nil, accumulates per-operation-class times.
	Recorder *trace.Collector
	// AutoDecompose ignores the problem's hierarchy and derives one by
	// constraint-graph partitioning (§5's automatic decomposition).
	AutoDecompose bool
	// LeafSize is the target leaf size (atoms) for automatic decomposition
	// (default 16).
	LeafSize int
	// MaxStep clamps each batch's state update to this infinity-norm trust
	// radius (Å) — the damping that keeps the iterated filter inside its
	// linearization range for strongly nonlinear observations. Zero selects
	// the 2 Å default; negative disables the clamp.
	MaxStep float64
	// Joseph selects the numerically robust Joseph-form covariance update
	// at roughly three times the m-m cost (see filter.Updater.Joseph).
	Joseph bool
	// GateSigma, when positive, enables innovation gating: observations
	// whose normalized innovation exceeds the gate are deweighted for the
	// current batch (see filter.Updater.GateSigma).
	GateSigma float64
	// OnCycle, when non-nil, is called after every completed
	// constraint-application cycle with the 1-based cycle number and the RMS
	// coordinate change over that cycle. The serving layer uses it for
	// cycle-level progress reporting; it must be fast and must not call back
	// into the estimator.
	OnCycle func(cycle int, rmsChange float64)
	// DivergeAfter is the divergence-watchdog patience: the solve aborts
	// with a typed solvererr.Diverged when the per-cycle RMS change grows
	// for this many consecutive cycles. Zero selects the default of 8;
	// negative disables the watchdog.
	DivergeAfter int
	// NoGuard disables numerical fault containment (ridge retries on an
	// indefinite innovation covariance, non-finite rollback, per-cycle
	// batch quarantine), restoring the raw fail-fast iteration.
	NoGuard bool
}

// DefaultLeafSize is the default target leaf size (atoms) of the automatic
// decomposition.
const DefaultLeafSize = 16

// withDefaults fills the construction parameters the plan depends on; the
// solver-control defaults live in filter.Control.WithDefaults alone.
func (c Config) withDefaults() Config {
	if c.Procs <= 0 {
		c.Procs = 1
	}
	if c.BatchSize <= 0 {
		c.BatchSize = filter.DefaultBatchSize
	}
	if c.LeafSize <= 0 {
		c.LeafSize = DefaultLeafSize
	}
	return c
}

// Estimator solves one problem instance. Create with New; an Estimator is
// safe for repeated Solve calls but not for concurrent use.
type Estimator struct {
	problem *molecule.Problem
	cfg     Config
	team    *par.Team
	root    *hier.Node // nil in flat mode
	plan    *hier.ExecPlan
}

// New builds an estimator for the problem. In hierarchical mode it
// constructs the structure tree (from the problem's own decomposition or
// automatically), assigns constraints to nodes, prepares batches, and
// computes the static processor assignment.
func New(p *molecule.Problem, cfg Config) (*Estimator, error) {
	e, _, err := NewWithPlan(p, cfg, nil)
	return e, err
}

// PlanArtifacts holds the planning work of estimator construction that
// depends only on the problem's topology (atoms, constraint graph,
// grouping) and the construction parameters — not on measurement values or
// starting positions. Repeated solves of the same topology can reuse them
// through NewWithPlan, skipping the decomposition and static-assignment
// passes; the serving layer's plan cache stores exactly this.
type PlanArtifacts struct {
	// Tree is the hierarchical grouping used: the problem's own or the
	// derived automatic decomposition, as regrouped by the work model.
	Tree *molecule.Group
	// Sketch is the tree-relative static processor assignment (nil when the
	// solve is sequential).
	Sketch *hier.PlanSketch
	// Procs, BatchSize and LeafSize record the construction parameters the
	// artifacts were computed for; NewWithPlan ignores artifacts built under
	// different parameters.
	Procs     int
	BatchSize int
	LeafSize  int
}

// compatible reports whether the artifacts were computed under the given
// effective (defaulted) construction parameters.
func (a *PlanArtifacts) compatible(cfg Config) bool {
	return a != nil && a.Tree != nil &&
		a.Procs == cfg.Procs && a.BatchSize == cfg.BatchSize && a.LeafSize == cfg.LeafSize
}

// NewWithPlan builds an estimator like New, but can reuse the
// topology-dependent planning artifacts of a previous construction. When
// art fits the configuration, the decomposition tree is taken from it and
// the static processor assignment is rebound from its sketch instead of
// being recomputed. It returns the artifacts of the estimator it built
// (fresh or reused) so the caller can cache them; callers are responsible
// for keying the cache by problem topology. In flat mode there is nothing
// to plan and the returned artifacts are nil.
func NewWithPlan(p *molecule.Problem, cfg Config, art *PlanArtifacts) (*Estimator, *PlanArtifacts, error) {
	cfg = cfg.withDefaults()
	e := &Estimator{problem: p, cfg: cfg, team: par.NewTeam(cfg.Procs)}
	if cfg.Mode == Flat {
		return e, nil, nil
	}
	if !art.compatible(cfg) {
		art = nil
	}
	tree := p.Tree
	if art != nil {
		tree = art.Tree
	} else if cfg.AutoDecompose || tree == nil {
		tree = hier.GraphPartition(len(p.Atoms), p.Constraints, cfg.LeafSize)
	}
	root, err := hier.Build(tree, p.Constraints)
	if err != nil {
		return nil, nil, fmt.Errorf("core: building hierarchy: %w", err)
	}
	// A tree not seen before is scored against the work model before it is
	// solved, and its wide nodes regrouped; the artifacts carry the result,
	// so a cached tree comes back regrouped already.
	if art == nil && root.Regroup(workest.FlopModel{}, cfg.BatchSize) {
		tree = root.Group()
	}
	if err := root.Prepare(cfg.BatchSize); err != nil {
		return nil, nil, fmt.Errorf("core: preparing batches: %w", err)
	}
	e.root = root
	if cfg.Procs > 1 {
		if art != nil && art.Sketch != nil {
			// Rebind the cached assignment; fall back to recomputing when the
			// sketch does not fit (e.g. the topology key collided).
			e.plan, err = hier.ApplySketch(root, art.Sketch)
			if err != nil {
				art = nil
			}
		}
		if e.plan == nil {
			work := sched.EstimateWork(root, workest.FlopModel{}, cfg.BatchSize)
			e.plan = sched.Assign(root, cfg.Procs, work)
			if err := e.plan.Validate(root, cfg.Procs); err != nil {
				return nil, nil, fmt.Errorf("core: processor assignment: %w", err)
			}
		}
	}
	if art == nil {
		art = &PlanArtifacts{
			Tree:      tree,
			Sketch:    e.plan.Sketch(root, cfg.Procs),
			Procs:     cfg.Procs,
			BatchSize: cfg.BatchSize,
			LeafSize:  cfg.LeafSize,
		}
	}
	return e, art, nil
}

// Root exposes the structure hierarchy (nil in flat mode), for inspection
// and for the virtual-machine experiments.
func (e *Estimator) Root() *hier.Node { return e.root }

// Plan exposes the static processor assignment (nil when sequential).
func (e *Estimator) Plan() *hier.ExecPlan { return e.plan }

// Problem returns the problem being solved.
func (e *Estimator) Problem() *molecule.Problem { return e.problem }

// InitialEstimate runs the low-resolution discrete conformational search
// (the paper's preprocessing step) to produce a starting structure.
func (e *Estimator) InitialEstimate(seed int64) []geom.Vec3 {
	return conform.Search(len(e.problem.Atoms), e.problem.Constraints, conform.Options{Seed: seed})
}

// Solution is a solved structure estimate.
type Solution struct {
	// Positions holds the estimated atom coordinates in problem order.
	Positions []geom.Vec3
	// Variances holds the summed coordinate variance of each atom — the
	// per-atom uncertainty measure the covariance matrix provides.
	Variances []float64
	// Cycles is the number of constraint-application cycles performed.
	Cycles int
	// Converged reports whether the RMS change fell below Tol.
	Converged bool
	// RMSChange is the RMS coordinate change over the final cycle.
	RMSChange float64
	// Residual is the RMS weighted constraint residual at the solution.
	Residual float64
	// Diagnostics reports the numerical fault-containment activity of the
	// solve: ridge retries, non-finite rollbacks, quarantined batches, and
	// the per-cycle RMS-change trajectory. Never nil.
	Diagnostics *filter.DiagSnapshot

	state *filter.State   // full posterior, for covariance interpretation
	mode  Mode            // the organization that solved it: decides what Posterior keeps
	local []int           // problem atom → state atom index
	atoms []molecule.Atom // the problem's atoms, named in reports
}

// Ellipsoid returns the positional uncertainty ellipsoid of an atom
// (problem ordering): the principal axes and standard deviations of its
// 3×3 covariance block.
func (s *Solution) Ellipsoid(atom int) (analysis.Ellipsoid, error) {
	if atom < 0 || atom >= len(s.local) {
		return analysis.Ellipsoid{}, fmt.Errorf("core: atom %d out of %d", atom, len(s.local))
	}
	return analysis.AtomEllipsoid(s.state, s.local[atom])
}

// Correlation returns the normalized cross-covariance coupling between two
// atoms: 0 when the data leaves their estimates independent, near 1 when
// it rigidly ties them together.
func (s *Solution) Correlation(a, b int) float64 {
	return analysis.Correlation(s.state, s.local[a], s.local[b])
}

// UncertaintyReport renders the covariance interpretation: overall σ plus
// the k best- and worst-determined atoms with their ellipsoids.
func (s *Solution) UncertaintyReport(k int) string {
	names := make([]string, s.state.Atoms())
	for i, li := range s.local {
		names[li] = s.atoms[i].Name
	}
	return analysis.Report(s.state, names, k)
}

// Solve estimates the structure starting from init (problem atom order).
func (e *Estimator) Solve(init []geom.Vec3) (*Solution, error) {
	return e.SolveContext(context.Background(), init)
}

// SolveContext estimates the structure starting from init (problem atom
// order), honouring cancellation: the convergence driver checks ctx between
// constraint-application cycles and returns ctx.Err() (matched by
// errors.Is against context.Canceled or context.DeadlineExceeded) when the
// context ends before convergence. This is the entry point the serving
// layer uses for per-request deadlines and job cancellation.
func (e *Estimator) SolveContext(ctx context.Context, init []geom.Vec3) (*Solution, error) {
	if len(init) != len(e.problem.Atoms) {
		return nil, fmt.Errorf("core: init has %d atoms, problem has %d", len(init), len(e.problem.Atoms))
	}
	if e.cfg.Mode == Flat {
		return e.solveFlat(ctx, init, nil)
	}
	return e.solveHier(ctx, init, nil)
}

// Replan computes a fresh static processor assignment for the estimator's
// tree at a different processor count, for processor-sweep experiments.
func Replan(e *Estimator, procs int) *hier.ExecPlan {
	if e.root == nil || procs <= 1 {
		return nil
	}
	work := sched.EstimateWork(e.root, workest.FlopModel{}, e.cfg.BatchSize)
	return sched.Assign(e.root, procs, work)
}

// ModelWork returns the work model's estimate of one cycle over the
// estimator's tree, in the model's relative units — what the static
// assignment balances and regrouping lowers; 0 in flat mode.
func ModelWork(e *Estimator) float64 {
	if e.root == nil {
		return 0
	}
	return sched.EstimateWork(e.root, workest.FlopModel{}, e.cfg.BatchSize).Subtree[e.root]
}

// control fills the solver's control block from the configuration — the
// one place the two organizations' options are spelled out.
func (e *Estimator) control(ctx context.Context) filter.Control {
	return filter.Control{
		BatchSize:    e.cfg.BatchSize,
		MaxCycles:    e.cfg.MaxCycles,
		Tol:          e.cfg.Tol,
		InitVar:      e.cfg.InitVar,
		Team:         e.team,
		Rec:          e.cfg.Recorder,
		MaxStep:      e.cfg.MaxStep,
		Joseph:       e.cfg.Joseph,
		GateSigma:    e.cfg.GateSigma,
		Ctx:          ctx,
		OnCycle:      e.cfg.OnCycle,
		DivergeAfter: e.cfg.DivergeAfter,
		NoGuard:      e.cfg.NoGuard,
		FaultTag:     e.problem.Name,
	}.WithDefaults()
}

// solution assembles the Solution from the final state, whose atom i is
// problem atom order[i]; an atom the state does not hold keeps its init
// position.
func (e *Estimator) solution(init []geom.Vec3, state *filter.State, order []int, res filter.Result) *Solution {
	n := len(e.problem.Atoms)
	sol := &Solution{
		Positions:   append([]geom.Vec3(nil), init...),
		Variances:   make([]float64, n),
		Cycles:      res.Cycles,
		Converged:   res.Converged,
		RMSChange:   res.RMSChange,
		Residual:    res.Residual,
		Diagnostics: res.Diag.Snapshot(),
		state:       state,
		mode:        e.cfg.Mode,
		local:       make([]int, n),
		atoms:       e.problem.Atoms,
	}
	for i, a := range order {
		sol.Positions[a] = state.Pos(i)
		sol.Variances[a] = state.Variance(i)
		sol.local[a] = i
	}
	return sol
}

// solveFlat runs the flat organization. A non-nil post warm-starts the
// solve: the state's first-cycle covariance is the posterior's (full when
// available, diagonal otherwise) instead of the isotropic prior.
func (e *Estimator) solveFlat(ctx context.Context, init []geom.Vec3, post *Posterior) (*Solution, error) {
	ctl := e.control(ctx)
	s := filter.NewState(init, ctl.InitVar)
	warm := false
	if post != nil {
		switch {
		case post.Cov != nil:
			s.C.CopyFrom(post.Cov)
			warm = true
		case post.CoordVariances != nil:
			s.C.Zero()
			for d, v := range post.CoordVariances {
				if v < filter.MinWarmVar {
					v = filter.MinWarmVar
				}
				s.C.Set(d, d, v)
			}
			warm = true
		}
	}
	res, err := filter.Solve(s, e.problem.Constraints, ctl, warm)
	if err != nil {
		return nil, err
	}
	order := make([]int, s.Atoms())
	for i := range order {
		order[i] = i
	}
	return e.solution(init, s, order, res), nil
}

// solveHier runs the hierarchical organization. Non-nil warmVars (one
// variance per coordinate, global atom order) warm-start the leaf
// assembly from a prior posterior's diagonal, carried forward pass to
// pass as a sequential continuation (see hier.Options.WarmVars).
func (e *Estimator) solveHier(ctx context.Context, init []geom.Vec3, warmVars []float64) (*Solution, error) {
	state, res, err := hier.Solve(e.root, init, hier.Options{Control: e.control(ctx), Plan: e.plan, WarmVars: warmVars})
	if err != nil {
		return nil, err
	}
	sol := e.solution(init, state, e.root.Atoms, res)
	sol.Residual = filter.WeightedResidual(sol.Positions, e.problem.Constraints)
	return sol, nil
}
