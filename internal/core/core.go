// Package core assembles the paper's method into a single estimator: given
// a structure-estimation problem, it solves for atomic coordinates and
// their uncertainty using either the flat organization (§2) or the parallel
// hierarchical organization (§3–4), with intra-node parallel matrix
// kernels, inter-node subtree parallelism on the solve's crew, and optional
// automatic decomposition of flat problem specifications.
package core

import (
	"context"
	"fmt"
	"sync"

	"phmse/internal/analysis"
	"phmse/internal/constraint"
	"phmse/internal/filter"
	"phmse/internal/geom"
	"phmse/internal/hier"
	"phmse/internal/molecule"
	"phmse/internal/par"
	"phmse/internal/trace"
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

// Config configures an Estimator. The zero value selects the flat
// organization (Mode's zero value is Flat) — the tree of one leaf holding
// every atom — batch dimension 16 and one processor; the paper's hierarchy
// is Mode: Hierarchical.
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
	// constraint-graph partitioning (§5's automatic decomposition) into
	// leaves of about leafSize atoms.
	AutoDecompose bool
	// MaxStep clamps each batch's state update to this infinity-norm trust
	// radius (Å) — the damping that keeps the iterated filter inside its
	// linearization range for strongly nonlinear observations. Zero selects
	// the 2 Å default; negative disables the clamp.
	MaxStep float64
	// OnCycle, when non-nil, is called after every completed
	// constraint-application cycle with the 1-based cycle number and the RMS
	// coordinate change over that cycle. The serving layer uses it for
	// cycle-level progress reporting; it must be fast and must not call back
	// into the estimator.
	OnCycle func(cycle int, rmsChange float64)
}

// leafSize is the target leaf size (atoms) of the automatic decomposition.
const leafSize = 16

// withDefaults fills the construction parameters; the solver-control
// defaults live in filter.Control.WithDefaults alone.
func (c Config) withDefaults() Config {
	if c.Procs <= 0 {
		c.Procs = 1
	}
	if c.BatchSize <= 0 {
		c.BatchSize = filter.DefaultBatchSize
	}
	return c
}

// Estimator solves one problem instance. Create with New; an Estimator is
// safe for repeated Solve calls but not for concurrent use.
type Estimator struct {
	problem *molecule.Problem
	cfg     Config
	team    *par.Team
	root    *hier.Node     // nil once closed
	art     *PlanArtifacts // the artifacts root is kept for
}

// New builds an estimator for the problem: it constructs the structure
// tree — in flat mode one leaf holding every atom, in hierarchical mode the
// problem's own decomposition or an automatic one — assigns constraints to
// nodes, regroups wide nodes and prepares batches.
func New(p *molecule.Problem, cfg Config) (*Estimator, error) {
	e, _, err := NewWithPlan(p, cfg, nil)
	return e, err
}

// PlanArtifacts holds the planning work of estimator construction that
// depends only on the problem's topology (atoms, constraint graph,
// grouping) and the construction parameters — not on measurement values,
// starting positions or the team's width. Repeated solves of the same
// topology can reuse them through NewWithPlan, skipping the decomposition
// and regrouping passes; the serving layer's plan cache stores exactly
// this.
//
// Beside Tree they keep the prepared node trees their estimators have
// handed back (Estimator.Close): a tree built, regrouped and prepared for
// one problem — its batches, sparse builders, kept gather plans and
// assembly scratch — serves the next problem of the topology once its
// constraints are rebound (hier.Node.Rebind). The list holds only trees
// that were in use at the same time, so it needs no cap.
type PlanArtifacts struct {
	// Tree is the grouping used: the flat organization's one leaf, or the
	// problem's own or the derived automatic decomposition, as regrouped by
	// the work model.
	Tree *molecule.Group
	// Mode and BatchSize record the construction parameters the artifacts
	// were computed for; NewWithPlan ignores artifacts built under
	// different parameters.
	Mode      Mode
	BatchSize int

	mu   sync.Mutex
	free []*hier.Node // prepared trees no estimator holds
}

// take returns a prepared tree rebound to cons, or nil when none is free
// or the one taken does not fit cons (it is dropped).
func (a *PlanArtifacts) take(cons *constraint.Set) *hier.Node {
	a.mu.Lock()
	var root *hier.Node
	if k := len(a.free); k > 0 {
		root = a.free[k-1]
		a.free[k-1] = nil
		a.free = a.free[:k-1]
	}
	a.mu.Unlock()
	if root == nil || root.Rebind(cons) != nil {
		return nil
	}
	return root
}

// give hands a prepared tree back for the next estimator of the topology.
func (a *PlanArtifacts) give(root *hier.Node) {
	a.mu.Lock()
	a.free = append(a.free, root)
	a.mu.Unlock()
}

// compatible reports whether the artifacts were computed under the given
// effective (defaulted) construction parameters.
func (a *PlanArtifacts) compatible(cfg Config) bool {
	return a != nil && a.Tree != nil && a.Mode == cfg.Mode && a.BatchSize == cfg.BatchSize
}

// NewWithPlan builds an estimator like New, but can reuse the
// topology-dependent planning artifacts of a previous construction. When
// art fits the configuration, the estimator takes a prepared tree an
// earlier one handed back (Close) and rebinds it to p's constraints; when
// none is free, or the one taken does not match p constraint for
// constraint, the decomposition tree is built from art's, already
// regrouped. It returns the artifacts of the estimator it built (fresh or
// reused) so the caller can cache them; callers are responsible for keying
// the cache by problem topology, though no result depends on that key being
// right.
func NewWithPlan(p *molecule.Problem, cfg Config, art *PlanArtifacts) (*Estimator, *PlanArtifacts, error) {
	cfg = cfg.withDefaults()
	e := &Estimator{problem: p, cfg: cfg, team: par.NewTeam(cfg.Procs)}
	if !art.compatible(cfg) {
		art = nil
	}
	if art != nil {
		if e.root = art.take(&p.Constraints); e.root != nil {
			e.art = art
			return e, art, nil
		}
	}
	tree := p.Tree
	switch {
	case art != nil:
		tree = art.Tree
	case cfg.Mode == Flat:
		// The flat organization (§2) is the hierarchy of one node. Its
		// leaf is unnamed: diagnostics and fault sites name no node.
		tree = &molecule.Group{AtomIDs: make([]int, len(p.Atoms))}
		for i := range tree.AtomIDs {
			tree.AtomIDs[i] = i
		}
	case cfg.AutoDecompose || tree == nil:
		tree = hier.GraphPartition(len(p.Atoms), &p.Constraints, leafSize)
	}
	root, err := hier.Build(tree, &p.Constraints)
	if err != nil {
		return nil, nil, fmt.Errorf("core: building hierarchy: %w", err)
	}
	// A tree not seen before is scored against the work model before it is
	// solved, and its wide nodes regrouped (a leaf has none); the artifacts
	// carry the result, so a cached tree comes back regrouped already.
	if art == nil && root.Regroup(cfg.BatchSize) {
		tree = root.Group()
	}
	if err := root.Prepare(cfg.BatchSize); err != nil {
		return nil, nil, fmt.Errorf("core: preparing batches: %w", err)
	}
	e.root = root
	if art == nil {
		art = &PlanArtifacts{Tree: tree, Mode: cfg.Mode, BatchSize: cfg.BatchSize}
	}
	e.art = art
	return e, art, nil
}

// Close hands the estimator's prepared tree back to the artifacts it was
// built with, for the next estimator of the topology (NewWithPlan). The
// estimator must not be used after Close; Solutions it returned stay
// valid. Closing an already closed estimator does nothing.
func (e *Estimator) Close() {
	if e.root != nil && e.art != nil {
		e.art.give(e.root)
	}
	e.root, e.art = nil, nil
}

// Root exposes the structure hierarchy — one leaf in flat mode — for
// inspection and for the virtual-machine experiments; nil after Close.
func (e *Estimator) Root() *hier.Node { return e.root }

// Problem returns the problem being solved.
func (e *Estimator) Problem() *molecule.Problem { return e.problem }

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

// Release returns the solution's covariance to the buffer pool. What the
// solution reports by value — Positions, Variances, the counts and
// Diagnostics — stays; Posterior, Correlation and UncertaintyReport must
// not be called after Release, and Ellipsoid reports an error. Take the
// Posterior first if it is wanted. Releasing twice does nothing.
func (s *Solution) Release() {
	filter.ReleasePooledState(s.state)
	s.state = nil
}

// Ellipsoid returns the positional uncertainty ellipsoid of an atom
// (problem ordering): the principal axes and standard deviations of its
// 3×3 covariance block.
func (s *Solution) Ellipsoid(atom int) (analysis.Ellipsoid, error) {
	if atom < 0 || atom >= len(s.local) {
		return analysis.Ellipsoid{}, fmt.Errorf("core: atom %d out of %d", atom, len(s.local))
	}
	if s.state == nil {
		return analysis.Ellipsoid{}, fmt.Errorf("core: solution released")
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
	return e.solve(ctx, init, hier.Prior{})
}

// control fills the solver's control block from the configuration — the
// one place the solver's options are spelled out.
func (e *Estimator) control(ctx context.Context) filter.Control {
	return filter.Control{
		BatchSize: e.cfg.BatchSize,
		MaxCycles: e.cfg.MaxCycles,
		Tol:       e.cfg.Tol,
		InitVar:   e.cfg.InitVar,
		Team:      e.team,
		Rec:       e.cfg.Recorder,
		MaxStep:   e.cfg.MaxStep,
		Ctx:       ctx,
		OnCycle:   e.cfg.OnCycle,
		FaultTag:  e.problem.Name,
	}.WithDefaults()
}

// solve runs the tree from init under the given warm prior (see
// hier.Prior) and assembles the Solution from the root state, whose atom
// i is problem atom root.Atoms[i]; an atom the tree does not hold keeps
// its init position.
func (e *Estimator) solve(ctx context.Context, init []geom.Vec3, warm hier.Prior) (*Solution, error) {
	if e.root == nil {
		return nil, fmt.Errorf("core: estimator closed")
	}
	state, res, err := hier.Solve(e.root, init, hier.Options{Control: e.control(ctx), Warm: warm})
	if err != nil {
		return nil, err
	}
	n := len(e.problem.Atoms)
	sol := &Solution{
		Positions:   append([]geom.Vec3(nil), init...),
		Variances:   make([]float64, n),
		Cycles:      res.Cycles,
		Converged:   res.Converged,
		RMSChange:   res.RMSChange,
		Diagnostics: res.Diag.Snapshot(),
		state:       state,
		mode:        e.cfg.Mode,
		local:       make([]int, n),
		atoms:       e.problem.Atoms,
	}
	for i, a := range e.root.Atoms {
		sol.Positions[a] = state.Pos(i)
		sol.Variances[a] = state.Variance(i)
		sol.local[a] = i
	}
	sol.Residual = filter.WeightedResidual(sol.Positions, &e.problem.Constraints)
	return sol, nil
}
