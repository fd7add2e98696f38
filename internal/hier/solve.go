package hier

import (
	"fmt"
	"math"
	"sync"

	"phmse/internal/filter"
	"phmse/internal/geom"
	"phmse/internal/par"
	"phmse/internal/trace"
)

// Options configures the hierarchical solver: the control block shared with
// the flat organization plus what only a tree has.
type Options struct {
	filter.Control
	// Plan is the static processor assignment over subtrees (nil runs the
	// children of every node in sequence on the full team).
	Plan *ExecPlan
	// WarmVars, when non-nil, holds per-coordinate prior variances indexed
	// 3·atom+coord in global atom order, injected in place of InitVar when
	// leaf and direct-atom states are assembled — the hierarchical form of
	// warm-starting from a prior posterior. The hierarchy rebuilds
	// cross-node covariance from its own constraints each pass, so only
	// the posterior's diagonal survives injection; cross-atom terms are
	// discarded. A warm solve never reverts to the diffuse InitVar: after
	// each pass the root posterior's diagonal becomes the next pass's
	// injected priors, the hierarchical analogue of flat-mode sequential
	// Kalman continuation. Re-introducing the diffuse reset mid-solve
	// would kick a near-converged state back onto the cold iteration's
	// slow transient.
	WarmVars []float64
}

// Solve runs the hierarchical estimation to convergence under the shared
// driver (filter.Control.Iterate): each cycle updates the tree post-order
// (children before parents, disjoint subtrees in parallel according to the
// plan), then the root estimate feeds the next cycle's linearization
// points. It returns the root state, whose atom ordering is root.Atoms;
// the result's Residual is left to the caller, who holds the constraints
// in global atom order.
func Solve(root *Node, init []geom.Vec3, opt Options) (*filter.State, filter.Result, error) {
	opt.Control = opt.Control.WithDefaults()
	if root.prepared != opt.BatchSize {
		if err := root.Prepare(opt.BatchSize); err != nil {
			return nil, filter.Result{}, err
		}
	}
	if err := opt.Plan.Validate(root, opt.Team.Size()); err != nil {
		return nil, filter.Result{}, err
	}
	if opt.WarmVars != nil && len(opt.WarmVars) != 3*len(init) {
		return nil, filter.Result{}, fmt.Errorf("hier: warm variances have %d entries, want %d", len(opt.WarmVars), 3*len(init))
	}
	positions := append([]geom.Vec3(nil), init...)
	if opt.WarmVars != nil {
		// The per-cycle carry-forward below rewrites the slice; copy it so
		// the caller's posterior is untouched.
		opt.WarmVars = append([]float64(nil), opt.WarmVars...)
	}
	var state *filter.State
	res, err := opt.Iterate(func(cycle int) (float64, error) {
		// The previous cycle's root posterior has served its purpose (its
		// positions were written back below last cycle): its buffers are
		// this cycle's. The final state escapes into the Solution and is
		// never released.
		filter.ReleasePooledState(state)
		var err error
		if state, err = updatePass(root, positions, opt, cycle); err != nil {
			return 0, err
		}

		// Write the root estimate back to the global position buffer and
		// measure the change.
		sum := 0.0
		for i, a := range root.Atoms {
			p := state.Pos(i)
			sum += p.Sub(positions[a]).Norm2()
			positions[a] = p
		}
		if opt.WarmVars != nil {
			// Sequential continuation: the pass posterior's diagonal
			// becomes the next pass's injected priors.
			for i, a := range root.Atoms {
				for c := 0; c < 3; c++ {
					opt.WarmVars[3*a+c] = state.C.At(3*i+c, 3*i+c)
				}
			}
		}
		return math.Sqrt(sum / float64(3*len(root.Atoms))), nil
	})
	return state, res, err
}

// UpdatePass performs one post-order pass over the tree (one cycle) from
// the given linearization positions and returns the root state.
func UpdatePass(root *Node, positions []geom.Vec3, opt Options) (*filter.State, error) {
	opt.Control = opt.Control.WithDefaults()
	return updatePass(root, positions, opt, 1)
}

// updatePass is one cycle: one zeroed root state, every node updating its
// own diagonal block of it in place, and one mirror at the end. A node's
// pass keeps the lower triangle of its block only, and nothing before the
// mirror reads the upper one; the mirror is unconditional because a root
// with no constraints of its own still has to come back symmetric. opt is
// already normalised.
func updatePass(root *Node, positions []geom.Vec3, opt Options, cycle int) (*filter.State, error) {
	// Pooled: C comes back zeroed, X is fully written by the leaves and
	// direct atoms, which between them hold every atom.
	s := filter.GetPooledState(root.StateDim())
	if _, err := updateNode(root, s, positions, opt, opt.Team, cycle); err != nil {
		filter.ReleasePooledState(s)
		return nil, err
	}
	opt.Updater(opt.Team, root.Name, cycle).Mirror(s)
	return s, nil
}

// updateNode computes the posterior of one node in the given cycle, in
// place in s, the node's block of the root state: children first, each in
// its own sub-block (possibly in parallel processor groups — disjoint
// subtrees write disjoint blocks), then the node's direct atoms' priors,
// then the node's own constraints, whose batches fill the cross blocks
// between the children, zero until then. It returns the guard's bound on
// the block, which the parent joins instead of rescanning it.
func updateNode(n *Node, s *filter.State, positions []geom.Vec3, opt Options, team *par.Team, cycle int) (filter.Bound, error) {
	var bound filter.Bound
	child := func(c *Node, team *par.Team) (filter.Bound, error) {
		return updateNode(c, s.Block(3*(c.lo-n.lo), c.StateDim()), positions, opt, team, cycle)
	}
	groups := opt.Plan.groupsFor(n)
	switch {
	case len(n.Children) == 0:
		// Leaf: nothing below.
	case groups == nil || team.Size() == 1 || len(groups) == 1:
		// Sequential children, full team each.
		for _, c := range n.Children {
			b, err := child(c, team)
			if err != nil {
				return bound, err
			}
			bound = bound.Join(b)
		}
	default:
		// Parallel processor groups over disjoint subtrees: the new axis of
		// parallelism exposed by the hierarchy.
		sizes := make([]int, len(groups))
		for i, g := range groups {
			sizes[i] = g.Procs
		}
		teams := team.SplitN(sizes)
		var mu sync.Mutex
		var firstErr error
		thunks := make([]func(), len(groups))
		for gi, g := range groups {
			gi, g := gi, g
			thunks[gi] = func() {
				var joined filter.Bound
				var err error
				for _, c := range g.Nodes {
					var b filter.Bound
					if b, err = child(c, teams[gi]); err != nil {
						break
					}
					joined = joined.Join(b)
				}
				mu.Lock()
				bound = bound.Join(joined)
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}
		par.Parallel(thunks...)
		if firstErr != nil {
			return bound, firstErr
		}
	}

	// The node's direct atoms: the current linearization positions with
	// fresh isotropic covariance — or, under a warm start, the injected
	// per-coordinate posterior variances.
	u := opt.Updater(team, n.Name, cycle)
	defer u.ReleaseWorkspace()
	if k := 3 * len(n.Direct); k > 0 {
		direct := s.Block(s.Dim()-k, k)
		for i, a := range n.Direct {
			direct.SetPos(i, positions[a])
			for c := 0; c < 3; c++ {
				direct.C.Set(3*i+c, 3*i+c, opt.priorVar(a, c))
			}
		}
		if u.Guard {
			u.Rec.Timed(trace.VecOp, 0, func() { bound = bound.Join(filter.ScanBound(direct)) })
		}
	}
	_, bound, err := u.ApplyLower(s, n.batches, bound)
	if err != nil {
		return bound, fmt.Errorf("node %q: %w", n.Name, err)
	}
	return bound, nil
}

// priorVar returns the initial variance of one coordinate of a global atom:
// the injected warm-start posterior variance when one is in effect, the
// isotropic InitVar otherwise. Injected variances are floored at a small
// positive value so a perfectly determined coordinate cannot produce a
// singular prior.
func (o Options) priorVar(atom, coord int) float64 {
	if o.WarmVars != nil {
		if v := o.WarmVars[3*atom+coord]; v > filter.MinWarmVar {
			return v
		}
		return filter.MinWarmVar
	}
	return o.InitVar
}
