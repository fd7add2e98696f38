// Package workest reproduces the paper's work-estimation machinery (§4.3):
// the Table 2 experiment measuring per-scalar-constraint execution time as
// a function of node size and constraint batch dimension, and the
// constrained least-squares polynomial fit that yields Equation 1, the
// formula the static processor-assignment heuristic uses to estimate the
// work at every node of the structure hierarchy.
package workest

import (
	"fmt"
	"math"
	"time"

	"phmse/internal/constraint"
	"phmse/internal/filter"
	"phmse/internal/geom"
	"phmse/internal/mat"
	"phmse/internal/molecule"
	"phmse/internal/stats"
)

// Measurement is one cell of Table 2.
type Measurement struct {
	NodeAtoms int     // node size in atoms (state dimension / 3)
	BatchDim  int     // constraint batch dimension m
	PerScalar float64 // measured seconds per scalar constraint
}

// DefaultNodeSizes are the node sizes (atoms) of the paper's Table 2.
var DefaultNodeSizes = []int{43, 86, 170, 340, 680}

// DefaultBatchDims are the batch dimensions of the paper's Table 2.
var DefaultBatchDims = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// MeasureTable2 runs the Table 2 experiment: for each node size it builds a
// single flat node with synthetic distance constraints and measures the
// average wall-clock time per scalar constraint for each batch dimension.
// scale (0 < scale ≤ 1) shrinks the constraint workload for quick runs.
func MeasureTable2(nodeSizes, batchDims []int, scale float64) []Measurement {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	var out []Measurement
	for _, atoms := range nodeSizes {
		prob := syntheticNode(atoms)
		for _, m := range batchDims {
			// Enough constraints for several batches, scaled down for tests.
			want := max(int(float64(4*m)*scale), m)
			cons := cycleConstraints(prob, want)
			sec := timeApply(prob, cons, m)
			out = append(out, Measurement{
				NodeAtoms: atoms,
				BatchDim:  m,
				PerScalar: sec / float64(cons.Len()),
			})
		}
	}
	return out
}

// syntheticNode builds an atoms-sized problem shaped like the paper's
// experiment nodes: a helix fragment with the right atom count.
func syntheticNode(atoms int) []geom.Vec3 {
	bp := max(atoms/43, 1)
	h := molecule.Helix(bp)
	pos := h.TruePositions()
	for len(pos) < atoms {
		// Extend with a displaced copy if the atom count is not a multiple
		// of the helix residue size.
		p := pos[len(pos)%len(h.Atoms)]
		pos = append(pos, p.Add(geom.Vec3{0, 0, float64(len(pos)) * 0.9}))
	}
	return pos[:atoms]
}

// cycleConstraints produces n scalar distance constraints cycling over atom
// pairs at varying strides, mimicking the mixed-locality distance data of
// the real problems.
func cycleConstraints(pos []geom.Vec3, n int) *constraint.Set {
	cons := new(constraint.Set)
	cons.Grow(n)
	stride := 1
	i := 0
	for cons.Len() < n {
		j := (i + stride) % len(pos)
		if j != i {
			cons.Add(constraint.Distance{
				I: i, J: j,
				Target: geom.Dist(pos[i], pos[j]),
				Sigma:  0.1,
			}.Row())
		}
		i++
		if i >= len(pos) {
			i = 0
			stride = stride%7 + 1
		}
	}
	return cons
}

// timeApply measures the wall-clock seconds to apply all constraints to a
// fresh state in batches of m.
func timeApply(pos []geom.Vec3, cons *constraint.Set, m int) float64 {
	s := filter.NewState(pos, 100)
	batches, err := filter.MakeBatches(cons, cons.AllRows(), func(a int) int { return a }, m)
	if err != nil {
		panic(err)
	}
	u := &filter.Updater{}
	start := time.Now()
	if _, _, err := u.ApplyLower(s, batches, u.JoinScan(filter.Bound{}, s)); err != nil {
		panic(err)
	}
	return time.Since(start).Seconds()
}

// Model is the fitted Equation 1: the estimated execution time of an
// equivalent scalar constraint as a function of node size n (state
// dimension) and batch dimension m. The basis is {n², n·m, n, m, 1} with
// non-negative coefficients, which guarantees the paper's regression
// checks: a positive leading coefficient, and non-negative coefficient sum
// and constant term, so the model cannot predict negative times.
type Model struct {
	// Coefficients of n², n·m, n, m, and the constant term.
	N2, NM, N, M, Const float64
}

// PerScalar returns the estimated seconds per scalar constraint at node
// size n (state dimension) and batch dimension m.
func (e Model) PerScalar(n, m int) float64 {
	fn, fm := float64(n), float64(m)
	return e.N2*fn*fn + e.NM*fn*fm + e.N*fn + e.M*fm + e.Const
}

// NodeWork returns the estimated seconds to apply total scalar constraints
// at a node of state dimension n with batch dimension m.
func (e Model) NodeWork(n, scalars, m int) float64 {
	if scalars <= 0 {
		return 0
	}
	batch := min(m, scalars)
	return float64(scalars) * e.PerScalar(n, batch)
}

func (e Model) String() string {
	return fmt.Sprintf("t = %.3e·n² + %.3e·n·m + %.3e·n + %.3e·m + %.3e", e.N2, e.NM, e.N, e.M, e.Const)
}

// Fit performs the constrained least-squares polynomial regression of
// Equation 1 on Table 2 style measurements, excluding very small batch
// dimensions exactly as the paper does (their vector-operation overheads do
// not follow the polynomial growth law).
func Fit(ms []Measurement, minBatch int) (Model, error) {
	var rows [][]float64
	var y []float64
	for _, mm := range ms {
		if mm.BatchDim < minBatch {
			continue
		}
		n := float64(3 * mm.NodeAtoms)
		m := float64(mm.BatchDim)
		rows = append(rows, []float64{n * n, n * m, n, m, 1})
		y = append(y, mm.PerScalar)
	}
	if len(rows) < 5 {
		return Model{}, fmt.Errorf("workest: only %d usable measurements", len(rows))
	}
	x := mat.FromRows(rows)
	beta, err := stats.NonNegativeLeastSquares(x, y)
	if err != nil {
		return Model{}, err
	}
	model := Model{N2: beta[0], NM: beta[1], N: beta[2], M: beta[3], Const: beta[4]}
	if err := model.check(); err != nil {
		return Model{}, err
	}
	return model, nil
}

// check enforces the paper's two regression safeguards.
func (e Model) check() error {
	if e.N2 <= 0 {
		return fmt.Errorf("workest: leading coefficient %g not positive", e.N2)
	}
	sum := e.N2 + e.NM + e.N + e.M + e.Const
	if sum < 0 || e.Const < 0 {
		return fmt.Errorf("workest: coefficient sum %g or constant %g negative", sum, e.Const)
	}
	return nil
}

// RSquared evaluates the fit quality over the given measurements.
func (e Model) RSquared(ms []Measurement, minBatch int) float64 {
	var pred, obs []float64
	for _, mm := range ms {
		if mm.BatchDim < minBatch {
			continue
		}
		pred = append(pred, e.PerScalar(3*mm.NodeAtoms, mm.BatchDim))
		obs = append(obs, mm.PerScalar)
	}
	return stats.RSquared(pred, obs)
}

// FlopModel is the analytic fallback estimator derived from the update
// procedure's operation counts; it needs no measurement run and is the
// default work estimator for scheduling. Costs are in relative units
// (flops per scalar constraint), which is all load balancing needs.
type FlopModel struct{}

// PerScalar returns relative work per scalar constraint: the O(n²) dense
// update dominates, with the O(m·n) gain solve and O(m²) factorization
// terms following the §2 complexity analysis. The n² coefficient reflects
// the symmetry-aware covariance kernel (lower triangle only: n²m flops per
// batch of m, i.e. n² per scalar, down from the full product's 2n²).
func (FlopModel) PerScalar(n, m int) float64 {
	fn, fm := float64(n), float64(m)
	return fn*fn + 2*fn*fm + 14*fn + fm*fm/3
}

// NodeWork returns relative work for scalars constraints at dimension n.
func (f FlopModel) NodeWork(n, scalars, m int) float64 {
	if scalars <= 0 {
		return 0
	}
	batch := min(m, scalars)
	return float64(scalars) * f.PerScalar(n, batch)
}

// BestBatch returns the batch dimension minimizing measured per-constraint
// time for the given node size (the paper finds 16 across all sizes).
func BestBatch(ms []Measurement, nodeAtoms int) int {
	best, bestT := 0, math.Inf(1)
	for _, mm := range ms {
		if mm.NodeAtoms == nodeAtoms && mm.PerScalar < bestT {
			best, bestT = mm.BatchDim, mm.PerScalar
		}
	}
	return best
}
