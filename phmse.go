// Package phmse is a Go implementation of parallel hierarchical molecular
// structure estimation (Chen, Singh, Altman — Supercomputing '96): a
// probabilistic method that integrates many uncertain measurements
// (distances, angles, torsions, absolute positions, one-sided bounds) into
// an estimate of a molecule's 3-D structure together with a covariance
// measure of its uncertainty.
//
// The package exposes the full system: problem generators (RNA helices, a
// synthetic 30S ribosome, α-helix-bundle proteins), the iterated
// Kalman-style estimator in flat and hierarchical organizations,
// goroutine-parallel execution with the paper's static
// processor-assignment heuristic, automatic structure decomposition, the
// work-estimation regression, calibrated virtual-time models of the
// paper's two evaluation machines (Stanford DASH and SGI Challenge) for
// reproducing its performance tables, the related-work baselines (distance
// geometry, energy minimization), and covariance diagnostics (uncertainty
// ellipsoids, per-type residuals).
//
// Quick start:
//
//	p := phmse.WithAnchors(phmse.Helix(4), 4, 0.05)
//	est, err := phmse.NewEstimator(p, phmse.Config{Mode: phmse.Hierarchical, Procs: 4})
//	if err != nil { ... }
//	sol, err := est.Solve(phmse.Perturbed(p, 0.5, 1))
//	fmt.Println(sol.Converged, sol.Residual)
package phmse

import (
	"io"
	"math"

	"phmse/internal/analysis"
	"phmse/internal/conform"
	"phmse/internal/constraint"
	"phmse/internal/core"
	"phmse/internal/distgeom"
	"phmse/internal/encode"
	"phmse/internal/energymin"
	"phmse/internal/filter"
	"phmse/internal/geom"
	"phmse/internal/hier"
	"phmse/internal/machine"
	"phmse/internal/molecule"
	"phmse/internal/pdb"
	"phmse/internal/superpose"
	"phmse/internal/trace"
	"phmse/internal/vm"
	"phmse/internal/workest"
)

// Geometry.
type (
	// Vec3 is a point or direction in 3-space.
	Vec3 = geom.Vec3
)

// Problem modeling.
type (
	// Problem is a structure-estimation problem instance: atoms with
	// reference positions, a constraint set, and a hierarchical grouping.
	Problem = molecule.Problem
	// Atom is one (pseudo-)atom of a problem.
	Atom = molecule.Atom
	// Group is a node of a molecule's hierarchical grouping.
	Group = molecule.Group
	// Ribo30SConfig sizes the synthetic ribosome generator.
	Ribo30SConfig = molecule.Ribo30SConfig
)

// Measurement models.
type (
	// Constraint is a (possibly vector-valued) observation of a structure.
	Constraint = constraint.Constraint
	// Distance is an observed interatomic distance.
	Distance = constraint.Distance
	// Angle is an observed bond angle.
	Angle = constraint.Angle
	// Torsion is an observed dihedral angle.
	Torsion = constraint.Torsion
	// Position anchors an atom to an externally known location.
	Position = constraint.Position
	// DistanceBound is a one-sided (non-Gaussian) distance constraint.
	DistanceBound = constraint.DistanceBound
)

// Estimation.
type (
	// Estimator solves a problem; construct with NewEstimator.
	Estimator = core.Estimator
	// Config configures an Estimator.
	Config = core.Config
	// Solution is a solved structure estimate with per-atom uncertainty.
	Solution = core.Solution
	// Mode selects the flat or hierarchical organization.
	Mode = core.Mode
	// Collector accumulates per-operation-class timing.
	Collector = trace.Collector
	// OpTimes is a per-operation-class time breakdown.
	OpTimes = trace.Times
)

// Organization modes.
const (
	// Flat treats the molecule as one long vector of atoms.
	Flat = core.Flat
	// Hierarchical recursively decomposes the molecule.
	Hierarchical = core.Hierarchical
)

// Performance modeling (the paper's evaluation machines).
type (
	// Machine is a calibrated 1996 shared-memory multiprocessor model.
	Machine = machine.Machine
	// SimResult is a virtual-time run result.
	SimResult = vm.Result
	// WorkModel is a fitted Equation 1 work-estimation model.
	WorkModel = workest.Model
	// Ellipsoid is one atom's positional uncertainty (principal axes with
	// standard deviations), from Solution.Ellipsoid.
	Ellipsoid = analysis.Ellipsoid
	// TypeResidual summarizes how well one class of observations is
	// satisfied, from ResidualsByType.
	TypeResidual = analysis.TypeResidual
	// Table2Cell is one measurement of the Table 2 experiment.
	Table2Cell = workest.Measurement
)

// NewEstimator builds an estimator for the problem.
func NewEstimator(p *Problem, cfg Config) (*Estimator, error) { return core.New(p, cfg) }

// Helix generates an RNA double helix of the given number of base pairs
// with the paper's five constraint categories and Figure 2 decomposition.
func Helix(basePairs int) *Problem { return molecule.Helix(basePairs) }

// Ribo30S generates the synthetic 30S ribosomal subunit problem.
func Ribo30S(seed int64) *Problem { return molecule.Ribo30S(seed) }

// Ribo30SWith generates a synthetic ribosome with explicit sizing.
func Ribo30SWith(cfg Ribo30SConfig) *Problem { return molecule.Ribo30SWith(cfg) }

// Protein generates a synthetic α-helix-bundle protein whose constraint
// set mixes distances, bond angles, backbone torsions, hydrogen bonds and
// tertiary contacts, with the residue/secondary/tertiary hierarchy the
// paper's introduction describes.
func Protein(nResidues int, seed int64) *Problem { return molecule.Protein(nResidues, seed) }

// ProteinConfig sizes the synthetic protein generator.
type ProteinConfig = molecule.ProteinConfig

// ProteinWith generates a synthetic protein with explicit sizing.
func ProteinWith(cfg ProteinConfig) *Problem { return molecule.ProteinWith(cfg) }

// WithAnchors returns a copy of the problem with its first k atoms anchored
// at their reference positions, removing rigid-motion gauge freedom.
func WithAnchors(p *Problem, k int, sigma float64) *Problem {
	return molecule.WithAnchors(p, k, sigma)
}

// Perturbed returns the problem's reference positions displaced by Gaussian
// noise, as a distorted starting estimate.
func Perturbed(p *Problem, sigma float64, seed int64) []Vec3 {
	return molecule.Perturbed(p, sigma, seed)
}

// RMSD returns the root-mean-square deviation between two conformations.
func RMSD(a, b []Vec3) float64 { return molecule.RMSD(a, b) }

// TopologyHash returns a content hash of the problem's topology — atom
// count, constraint graph (types and atom indices, not measurement
// values), and hierarchical grouping. Problems with equal hashes share
// decomposition and scheduling products; the phmsed daemon keys its plan
// cache on it.
func TopologyHash(p *Problem) string { return encode.TopologyHash(p) }

// ConformSearch runs the low-resolution discrete conformational space
// search to produce an initial structure estimate.
func ConformSearch(nAtoms int, cons []Constraint, seed int64) []Vec3 {
	return conform.Search(nAtoms, cons, conform.Options{Seed: seed})
}

// GraphPartition derives a hierarchical grouping of a flat problem by
// recursive constraint-graph bipartition (§5's automatic decomposition).
func GraphPartition(nAtoms int, cons []Constraint, leafSize int) *Group {
	return hier.GraphPartition(nAtoms, cons, leafSize)
}

// RecursiveBisection derives a hierarchical grouping by blind halving of
// the atom index range (the paper's baseline decomposition).
func RecursiveBisection(nAtoms, leafSize int) *Group {
	return hier.RecursiveBisection(nAtoms, leafSize)
}

// ModelWork returns the analytic work model's estimate of one cycle over
// the estimator's (regrouped) tree, in relative units: the prediction to
// hold a measured cycle time against when comparing decompositions.
func ModelWork(e *Estimator) float64 { return core.ModelWork(e) }

// DASH returns the calibrated Stanford DASH machine model (32 processors).
func DASH() *Machine { return machine.DASH() }

// Challenge returns the calibrated SGI Challenge model (16 processors).
func Challenge() *Machine { return machine.Challenge() }

// Simulate runs one virtual-time cycle of the estimator's parallel
// hierarchical schedule on the machine model with the given processor
// count, reproducing the paper's Tables 3–6 methodology. The estimator must
// be hierarchical.
func Simulate(e *Estimator, m *Machine, procs int) SimResult {
	root := e.Root()
	if root == nil {
		panic("phmse: Simulate requires a hierarchical estimator")
	}
	plan := replan(e, procs)
	return vm.Run(root, m, procs, plan)
}

// SimulateDynamic runs one virtual-time cycle under the §5 dynamic
// processor re-grouping extension (greedy load balancing across sibling
// subtrees instead of the static bipartition).
func SimulateDynamic(e *Estimator, m *Machine, procs int) SimResult {
	root := e.Root()
	if root == nil {
		panic("phmse: SimulateDynamic requires a hierarchical estimator")
	}
	return vm.RunDynamic(root, m, procs)
}

// SimulateFlat runs one virtual-time cycle of the flat organization.
func SimulateFlat(p *Problem, m *Machine, procs, batch int) SimResult {
	if batch <= 0 {
		batch = filter.DefaultBatchSize
	}
	shapes := vm.FlatShapes(p.ScalarDim(), batch, 6)
	return vm.RunFlat(3*len(p.Atoms), shapes, m, procs)
}

// MeasureTable2 runs the paper's Table 2 experiment with real kernels.
func MeasureTable2(nodeSizes, batchDims []int, scale float64) []Table2Cell {
	return workest.MeasureTable2(nodeSizes, batchDims, scale)
}

// FitEquation1 performs the paper's constrained regression on Table 2
// measurements, excluding batch dimensions below minBatch.
func FitEquation1(cells []Table2Cell, minBatch int) (WorkModel, error) {
	return workest.Fit(cells, minBatch)
}

// replan recomputes the static processor assignment for a processor count
// different from the estimator's configuration.
func replan(e *Estimator, procs int) *hier.ExecPlan {
	if procs <= 1 {
		return nil
	}
	return core.Replan(e, procs)
}

// --- Baseline methods (§6 related work) and structural utilities ---

// EnergyResult reports the outcome of an energy minimization.
type EnergyResult = energymin.Result

// DistanceGeometry runs the Crippen–Havel baseline: bound smoothing, trial
// distances, and metric-matrix embedding. It returns candidate coordinates
// with no uncertainty measure.
func DistanceGeometry(p *Problem, seed int64) ([]Vec3, error) {
	return distgeom.Embed(len(p.Atoms), p.Constraints, distgeom.Options{Seed: seed})
}

// EnergyMinimize runs the penalty-function minimization baseline on pos in
// place and reports the outcome.
func EnergyMinimize(p *Problem, pos []Vec3, maxIters int) EnergyResult {
	return energymin.Minimize(pos, p.Constraints, energymin.Options{MaxIters: maxIters})
}

// ConstraintEnergy returns the weighted squared constraint violation of a
// conformation — the objective shared by the baseline methods.
func ConstraintEnergy(p *Problem, pos []Vec3) float64 {
	return energymin.Energy(pos, p.Constraints)
}

// SuperposedRMSD returns the RMSD between two conformations after optimal
// rigid-body superposition (Horn's method), removing the gauge freedom
// distance data cannot determine.
func SuperposedRMSD(moving, fixed []Vec3) (float64, error) {
	return superpose.RMSD(moving, fixed)
}

// WritePDB writes a solved structure in PDB format with per-atom positional
// σ in the B-factor column.
func WritePDB(w io.Writer, p *Problem, sol *Solution) error {
	sigma := make([]float64, len(sol.Variances))
	for i, v := range sol.Variances {
		sigma[i] = math.Sqrt(v)
	}
	return pdb.Write(w, p.Name, p.Atoms, sol.Positions, sigma)
}

// GroupBottomUp builds a hierarchy from user-specified leaf groups by
// pairwise merging scored with the analytic work model (§5's bottom-up
// alternative) — the regrouping NewEstimator applies to any node wider than
// two, run on the flat tree over the leaves.
func GroupBottomUp(leaves []*Group, cons []Constraint) *Group {
	return hier.GroupLeaves(leaves, cons, workest.FlopModel{})
}

// WithExclusions augments a problem with van der Waals lower-bound
// constraints (non-Gaussian, one-sided) on every stride-th unobserved pair.
func WithExclusions(p *Problem, minDist, sigma float64, stride int) *Problem {
	return molecule.WithExclusions(p, minDist, sigma, stride)
}

// Clashes counts atom pairs closer than minDist in a conformation.
func Clashes(pos []Vec3, minDist float64) int {
	return molecule.Clashes(pos, minDist)
}

// ResidualsByType evaluates the problem's constraints at a conformation and
// groups the weighted residuals by constraint type — the first diagnostic
// to read when a solve stalls.
func ResidualsByType(p *Problem, pos []Vec3) map[string]TypeResidual {
	return analysis.ResidualByType(pos, p.Constraints)
}

// FormatResiduals renders a per-type residual table, largest RMS first.
func FormatResiduals(byType map[string]TypeResidual) string {
	return analysis.FormatResiduals(byType)
}
