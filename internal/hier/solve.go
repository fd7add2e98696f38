package hier

import (
	"fmt"
	"math"

	"phmse/internal/filter"
	"phmse/internal/geom"
	"phmse/internal/mat"
	"phmse/internal/par"
)

// Options configures the hierarchical solver: the control block shared
// with every tree plus what only a warm start has. The team's width decides
// how finely loops are cut and how many subtrees run at once, never a bit
// of the result.
type Options struct {
	filter.Control
	// Warm, when it holds a prior, warm-starts the solve from a prior
	// posterior instead of the isotropic InitVar (see Prior).
	Warm Prior
}

// Prior is a warm start's prior, in one of two forms; the zero Prior is a
// cold start.
type Prior struct {
	// Vars, the diagonal form, holds per-coordinate prior variances
	// indexed 3·atom+coord in global atom order, injected in place of
	// InitVar when leaf and direct-atom states are assembled. The hierarchy
	// rebuilds cross-node covariance from its own constraints each pass,
	// so only the posterior's diagonal survives injection; cross-atom terms
	// are discarded. A warm solve never reverts to the diffuse InitVar:
	// after each pass the root posterior's diagonal becomes the next pass's
	// injected priors, a sequential continuation. Re-introducing the
	// diffuse reset mid-solve would kick a near-converged state back onto
	// the cold iteration's slow transient.
	Vars []float64
	// Cov, the dense form, is a covariance in the root's state order whose
	// lower triangle the first pass starts from; it is read, never written.
	// Only a tree whose root is a leaf — the flat organization — takes it.
	// The solve keeps one state from pass to pass in place: each pass
	// writes the linearization positions into X and updates C as the last
	// pass left it, the sequential Kalman continuation of the whole
	// covariance.
	Cov *mat.Mat
}

// check reports whether the prior fits a solve of the tree from n atoms.
func (p Prior) check(root *Node, n int) error {
	switch {
	case p.Vars != nil && p.Cov != nil:
		return fmt.Errorf("hier: a warm prior is diagonal or dense, not both")
	case p.Vars != nil && len(p.Vars) != 3*n:
		return fmt.Errorf("hier: warm variances have %d entries, want %d", len(p.Vars), 3*n)
	case p.Cov != nil && !root.IsLeaf():
		return fmt.Errorf("hier: a dense warm prior needs a one-leaf tree, not %d nodes", root.Count())
	case p.Cov != nil && (p.Cov.Rows != root.StateDim() || p.Cov.Cols != root.StateDim()):
		return fmt.Errorf("hier: warm covariance is %d×%d, want %d×%d", p.Cov.Rows, p.Cov.Cols, root.StateDim(), root.StateDim())
	}
	return nil
}

// Solve runs the hierarchical estimation to convergence under the shared
// driver (filter.Control.Iterate): each cycle updates the tree post-order
// (children before parents, every node's children posted to the crew at
// once, largest subtree first), then the root estimate feeds the next
// cycle's linearization points. It returns the root state, whose atom
// ordering is root.Atoms; the result's Residual is left to the caller, who
// holds the constraints in global atom order.
//
// A cold or diagonal warm solve takes a fresh root state from the pool
// for every pass and hands the last pass's back; a dense warm solve
// (Prior.Cov) keeps one state for the whole solve and skips the clearing.
//
// The solve runs on a crew started for it (par.Team.Start) and stopped
// before it returns. The returned state, like every node's pass, holds C
// in its lower triangle only (read it through filter.State.Cov); it comes
// from the pool, and filter.ReleasePooledState returns it.
func Solve(root *Node, init []geom.Vec3, opt Options) (*filter.State, filter.Result, error) {
	opt.Control = opt.Control.WithDefaults()
	if root.prepared != opt.BatchSize {
		if err := root.Prepare(opt.BatchSize); err != nil {
			return nil, filter.Result{}, err
		}
	}
	if err := opt.Warm.check(root, len(init)); err != nil {
		return nil, filter.Result{}, err
	}
	var stop func()
	opt.Team, stop = opt.Team.Start()
	defer stop()
	positions := append([]geom.Vec3(nil), init...)
	if opt.Warm.Vars != nil {
		// The per-cycle carry-forward below rewrites the slice; copy it so
		// the caller's posterior is untouched.
		opt.Warm.Vars = append([]float64(nil), opt.Warm.Vars...)
	}
	var state *filter.State
	if dense := opt.Warm.Cov; dense != nil {
		// The one state of a dense continuation, its C the prior's.
		state = filter.GetPooledState(root.StateDim())
		for i := range dense.Rows {
			copy(state.C.Row(i)[:i+1], dense.Row(i))
		}
	}
	res, err := opt.Iterate(func(cycle int) (float64, error) {
		var err error
		if opt.Warm.Cov != nil {
			_, err = updateNode(root, state, positions, opt, opt.Team, cycle)
		} else {
			// The previous cycle's root posterior has served its purpose
			// (its positions were written back below last cycle): its
			// buffers are this cycle's. The final state is the caller's,
			// who hands it back to the pool when done with it
			// (core.Solution.Release).
			filter.ReleasePooledState(state)
			state, err = updatePass(root, positions, opt, cycle)
		}
		if err != nil {
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
		if opt.Warm.Vars != nil {
			// Sequential continuation: the pass posterior's diagonal
			// becomes the next pass's injected priors.
			for i, a := range root.Atoms {
				for c := 0; c < 3; c++ {
					opt.Warm.Vars[3*a+c] = state.C.At(3*i+c, 3*i+c)
				}
			}
		}
		return math.Sqrt(sum / float64(3*len(root.Atoms))), nil
	})
	return state, res, err
}

// onePass performs one post-order pass over the tree (one cycle) from the
// given linearization positions and returns the root state, its C in the
// lower triangle only. A dense prior continues a Solve's own state, so
// onePass ignores one.
func onePass(root *Node, positions []geom.Vec3, opt Options) (*filter.State, error) {
	opt.Control = opt.Control.WithDefaults()
	opt.Warm.Cov = nil
	var stop func()
	opt.Team, stop = opt.Team.Start()
	defer stop()
	return updatePass(root, positions, opt, 1)
}

// updatePass is one cycle: one root state from the pool, every node
// clearing and then updating its own diagonal block of it in place. A
// node's pass keeps the lower triangle of its block only; the upper one is
// left as the pool handed it over. opt is already normalised.
func updatePass(root *Node, positions []geom.Vec3, opt Options, cycle int) (*filter.State, error) {
	// Pooled and dirty: every node clears the part of C it owns before its
	// pass, and X is fully written by the leaves and direct atoms, which
	// between them hold every atom.
	s := filter.GetPooledState(root.StateDim())
	if _, err := updateNode(root, s, positions, opt, opt.Team, cycle); err != nil {
		filter.ReleasePooledState(s)
		return nil, err
	}
	return s, nil
}

// updateNode computes the posterior of one node in the given cycle, in
// place in s, the node's block of the root state: children first, each in
// its own sub-block, then the node clears what is left of its lower
// triangle (clearOwn) and sets its direct atoms' priors, then its own
// constraints' batches fill the cross blocks between the children. It
// returns the guard's bound on the block, which the parent joins instead of
// rescanning it.
//
// Every child is a task of its own on the crew, posted in Prepare's order,
// largest subtree first — the new axis of parallelism the hierarchy
// exposes. Disjoint subtrees write disjoint blocks, and the children's
// bounds and errors are read back in child order, so the result does not
// depend on which subtree finishes first: the error is the lowest-indexed
// failing child's.
func updateNode(n *Node, s *filter.State, positions []geom.Vec3, opt Options, team *par.Team, cycle int) (filter.Bound, error) {
	type result struct {
		bound filter.Bound
		err   error
	}
	done := make([]result, len(n.Children))
	tasks := make([]func(), len(n.order))
	for k, i := range n.order {
		c := n.Children[i]
		tasks[k] = func() {
			done[i].bound, done[i].err = updateNode(c, s.Block(3*(c.lo-n.lo), c.StateDim()), positions, opt, team, cycle)
		}
	}
	team.Parallel(tasks...)
	var bound filter.Bound
	for _, r := range done {
		if r.err != nil {
			return bound, r.err
		}
		bound = bound.Join(r.bound)
	}

	if opt.Warm.Cov == nil {
		n.clearOwn(s.C, team)
	}
	u := opt.Updater(team, n.Name, cycle)
	defer u.ReleaseWorkspace()
	bound = n.setDirect(s, positions, opt, u, bound)
	_, bound, err := u.ApplyLower(s, n.batches, bound)
	if err != nil {
		return bound, fmt.Errorf("node %q: %w", n.Name, err)
	}
	return bound, nil
}

// setDirect sets the node's direct atoms in s, after clearOwn: the current
// linearization positions with fresh isotropic covariance — or, under a
// diagonal warm start, the injected per-coordinate posterior variances;
// under a dense one C stays as the last pass left it. It returns
// the children's bound joined, under the guard, with a scan of the direct
// block: the bound the node's own batches start from.
func (n *Node) setDirect(s *filter.State, positions []geom.Vec3, opt Options, u *filter.Updater, bound filter.Bound) filter.Bound {
	k := 3 * len(n.Direct)
	if k == 0 {
		return bound
	}
	direct := s.Block(s.Dim()-k, k)
	for i, a := range n.Direct {
		direct.SetPos(i, positions[a])
		if opt.Warm.Cov != nil {
			continue
		}
		for c := 0; c < 3; c++ {
			direct.C.Set(3*i+c, 3*i+c, opt.priorVar(a, c))
		}
	}
	return u.JoinScan(bound, direct)
}

// clearOwn zeroes the part of the node's block c that no child block
// covers: in each child's rows, the columns left of that child's block —
// the cross blocks the node's own batches fill — and in each direct atom's
// row, everything up to the diagonal. The root state comes from the pool
// dirty; this way every entry of its lower triangle is cleared by exactly
// one node, just before that node's own pass, on its team and into cache
// for its first batch.
func (n *Node) clearOwn(c *mat.Mat, team *par.Team) {
	team.ForTri(c.Rows, func(lo, hi int) {
		k := 0 // the child holding row i, len(n.Children) for a direct atom's row
		for i := lo; i < hi; i++ {
			for k < len(n.Children) && i >= 3*(n.Children[k].lo-n.lo+len(n.Children[k].Atoms)) {
				k++
			}
			w := i + 1
			if k < len(n.Children) {
				w = 3 * (n.Children[k].lo - n.lo)
			}
			clear(c.Row(i)[:w])
		}
	})
}

// priorVar returns the initial variance of one coordinate of a global atom:
// the injected warm-start posterior variance when one is in effect, the
// isotropic InitVar otherwise. Injected variances are floored at a small
// positive value so a perfectly determined coordinate cannot produce a
// singular prior.
func (o Options) priorVar(atom, coord int) float64 {
	if o.Warm.Vars != nil {
		if v := o.Warm.Vars[3*atom+coord]; v > filter.MinWarmVar {
			return v
		}
		return filter.MinWarmVar
	}
	return o.InitVar
}
