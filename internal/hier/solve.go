package hier

import (
	"fmt"
	"math"
	"sync"

	"phmse/internal/filter"
	"phmse/internal/geom"
	"phmse/internal/par"
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
	if root.batches == nil {
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
		prevState := state
		var err error
		if state, err = updateNode(root, positions, opt, opt.Team, cycle); err != nil {
			return 0, err
		}
		// The previous cycle's root posterior has served its purpose (its
		// positions were written back below last cycle); recycle it. The
		// final state escapes into the Solution and is never released.
		filter.ReleasePooledState(prevState)

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
	return updateNode(root, positions, opt, opt.Team, 1)
}

// updateNode computes the posterior state of one node in the given cycle:
// children first (possibly in parallel processor groups), then the node's
// own constraints. opt is already normalised.
func updateNode(n *Node, positions []geom.Vec3, opt Options, team *par.Team, cycle int) (*filter.State, error) {
	childStates := make([]*filter.State, len(n.Children))
	groups := opt.Plan.groupsFor(n)
	switch {
	case len(n.Children) == 0:
		// Leaf: fresh state from the current linearization positions.
	case groups == nil || team.Size() == 1 || len(groups) == 1:
		// Sequential children, full team each.
		for i, c := range n.Children {
			s, err := updateNode(c, positions, opt, team, cycle)
			if err != nil {
				return nil, err
			}
			childStates[i] = s
		}
	default:
		// Parallel processor groups over disjoint subtrees: the new axis of
		// parallelism exposed by the hierarchy.
		sizes := make([]int, len(groups))
		for i, g := range groups {
			sizes[i] = g.Procs
		}
		teams := team.SplitN(sizes)
		index := make(map[*Node]int, len(n.Children))
		for i, c := range n.Children {
			index[c] = i
		}
		var mu sync.Mutex
		var firstErr error
		thunks := make([]func(), len(groups))
		for gi, g := range groups {
			gi, g := gi, g
			thunks[gi] = func() {
				for _, c := range g.Nodes {
					s, err := updateNode(c, positions, opt, teams[gi], cycle)
					if err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						return
					}
					mu.Lock()
					childStates[index[c]] = s
					mu.Unlock()
				}
			}
		}
		par.Parallel(thunks...)
		if firstErr != nil {
			return nil, firstErr
		}
	}

	s := assemble(n, childStates, positions, opt)
	// The children's posteriors have been copied into the parent's prior;
	// their pooled buffers feed the next node's assembly.
	for _, cs := range childStates {
		filter.ReleasePooledState(cs)
	}
	u := opt.Updater(team, n.Name, cycle)
	defer u.ReleaseWorkspace()
	if _, err := u.ApplyAll(s, n.batches); err != nil {
		return nil, fmt.Errorf("node %q: %w", n.Name, err)
	}
	return s, nil
}

// assemble builds the node's prior state: children posteriors as
// uncorrelated diagonal blocks (their mutual covariance is zero until the
// node's own cross-boundary constraints fill it in), then the node's direct
// atoms with fresh isotropic covariance — or, under a warm start, the
// injected per-coordinate posterior variances.
func assemble(n *Node, childStates []*filter.State, positions []geom.Vec3, opt Options) *filter.State {
	dim := n.StateDim()
	// Pooled prior: X is fully written below (children then direct atoms
	// cover every entry), C comes back zeroed so the off-diagonal blocks
	// between children start uncorrelated.
	s := filter.GetPooledState(dim)
	off := 0
	for i, cs := range childStates {
		cd := n.Children[i].StateDim()
		copy(s.X[off:off+cd], cs.X)
		s.C.View(off, off, cd, cd).CopyFrom(cs.C)
		off += cd
	}
	for _, a := range n.Direct {
		p := positions[a]
		s.X[off], s.X[off+1], s.X[off+2] = p[0], p[1], p[2]
		for c := 0; c < 3; c++ {
			s.C.Set(off+c, off+c, opt.priorVar(a, c))
		}
		off += 3
	}
	return s
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
