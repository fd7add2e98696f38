package encode

// This file holds the wire-format data-transfer objects for the serving
// layer: solve requests submitted to POST /v1/solve and solution documents
// returned by GET /v1/jobs/{id}/result. They live here, next to the
// problem format, so every tool that speaks the problem JSON can also
// speak the job JSON.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"phmse/internal/filter"
	"phmse/internal/geom"
	"phmse/internal/mat"
	"phmse/internal/molecule"
)

// SolveParams is the wire form of the solver configuration accepted with a
// submitted problem. Zero values select the solver defaults.
type SolveParams struct {
	// Mode is "hier" (default) or "flat".
	Mode string `json:"mode,omitempty"`
	// Procs requests a processor-team size for this job; the server caps it
	// at its per-job allocation.
	Procs int `json:"procs,omitempty"`
	// BatchSize is the scalar constraint batch dimension.
	BatchSize int `json:"batch,omitempty"`
	// MaxCycles bounds the constraint-application cycles.
	MaxCycles int `json:"max_cycles,omitempty"`
	// Tol is the RMS coordinate change declaring convergence.
	Tol float64 `json:"tol,omitempty"`
	// Auto derives the hierarchy by constraint-graph partitioning even when
	// the problem carries its own grouping.
	Auto bool `json:"auto,omitempty"`
	// Perturb starts the solve from the reference positions displaced by
	// Gaussian noise of this σ (Å); the default is 0.5.
	Perturb float64 `json:"perturb,omitempty"`
	// Seed seeds the starting-estimate perturbation.
	Seed int64 `json:"seed,omitempty"`
	// TimeoutMillis, when positive, bounds the solve's wall-clock time; an
	// expired job fails with a deadline error.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
	// KeepPosterior asks the server to retain the job's posterior (what a
	// warm start of its mode reads) in its bounded posterior store on
	// completion, so later submissions can warm-start from it.
	KeepPosterior bool `json:"keep_posterior,omitempty"`
}

// WarmStartRef names a prior job whose retained posterior should seed the
// solve instead of the perturbed-prior initialisation.
type WarmStartRef struct {
	Job string `json:"job"`
}

// SolveRequest is the JSON body of POST /v1/solve: a problem document in
// the interchange format plus solver parameters and an optional warm-start
// reference.
type SolveRequest struct {
	Problem json.RawMessage `json:"problem"`
	Params  SolveParams     `json:"params,omitempty"`
	// WarmStart, when present, starts the solve from the referenced job's
	// retained posterior. The referenced posterior must belong to the same
	// molecule (equal StructureHash); a mismatch is rejected with the
	// topology_mismatch error code.
	WarmStart *WarmStartRef `json:"warm_start,omitempty"`
}

// solveRequest is SolveRequest with the problem typed as the file struct:
// the shape both directions of the wire use, so a request is rendered and
// parsed in one pass instead of through an intermediate raw document.
type solveRequest struct {
	Problem   *fileProblem  `json:"problem"`
	Params    SolveParams   `json:"params,omitempty"`
	WarmStart *WarmStartRef `json:"warm_start,omitempty"`
}

// MarshalSolveRequest renders the body of POST /v1/solve. The bytes equal
// json.Marshal of a SolveRequest whose Problem is WriteProblem's output.
func MarshalSolveRequest(p *molecule.Problem, params SolveParams, warm *WarmStartRef) ([]byte, error) {
	fp, err := toFileProblem(p)
	if err != nil {
		return nil, err
	}
	return json.Marshal(solveRequest{Problem: fp, Params: params, WarmStart: warm})
}

// ReadSolveRequest parses and validates a solve request, returning the
// decoded problem, the solver parameters, and the warm-start reference
// (nil when the submission is cold). The body must be exactly one JSON
// document.
func ReadSolveRequest(r io.Reader) (*molecule.Problem, SolveParams, *WarmStartRef, error) {
	fail := func(err error) (*molecule.Problem, SolveParams, *WarmStartRef, error) {
		return nil, SolveParams{}, nil, err
	}
	var body bytes.Buffer // doubles as it fills: half the garbage of io.ReadAll on a 40 KB request
	if _, err := body.ReadFrom(r); err != nil {
		return fail(fmt.Errorf("encode: request: %w", err))
	}
	var req solveRequest
	if err := json.Unmarshal(body.Bytes(), &req); err != nil {
		return fail(fmt.Errorf("encode: request: %w", err))
	}
	if req.Problem == nil {
		return fail(fmt.Errorf("encode: request has no problem document"))
	}
	p, err := req.Problem.problem()
	if err != nil {
		return fail(err)
	}
	if len(p.Atoms) == 0 {
		return fail(fmt.Errorf("encode: problem has no atoms"))
	}
	switch req.Params.Mode {
	case "", "hier", "flat":
	default:
		return fail(fmt.Errorf("encode: unknown mode %q (want \"flat\" or \"hier\")", req.Params.Mode))
	}
	if req.WarmStart != nil && req.WarmStart.Job == "" {
		return fail(fmt.Errorf("encode: warm_start reference has no job id"))
	}
	return p, req.Params, req.WarmStart, nil
}

// SolutionDoc is the wire form of a solved structure estimate.
type SolutionDoc struct {
	Name      string       `json:"name"`
	Converged bool         `json:"converged"`
	Cycles    int          `json:"cycles"`
	RMSChange float64      `json:"rms_change"`
	Residual  float64      `json:"residual"`
	Positions [][3]float64 `json:"positions"`
	// Variances holds each atom's summed coordinate variance (Å²).
	Variances []float64 `json:"variances"`
	// Diagnostics reports the solve's numerical fault-containment activity
	// (ridge retries, rollbacks, quarantined batches, RMS trajectory);
	// omitted when the solve saw none.
	Diagnostics *filter.DiagSnapshot `json:"diagnostics,omitempty"`
}

// PosteriorDoc is the wire form of a retained posterior estimate: the
// warm-start currency of the v1 API, served by GET /v1/jobs/{id}/posterior,
// accepted by PUT /v1/posteriors/{id}, and written to disk by phmsed
// -posterior-dir and msesolve -save-posterior. Positions and variances are
// in problem atom order.
type PosteriorDoc struct {
	// Job is the id of the job that produced the posterior (empty for
	// posteriors saved by the command-line tools).
	Job     string `json:"job,omitempty"`
	Problem string `json:"problem,omitempty"`
	// TopologyHash identifies the full problem topology the posterior was
	// solved under; StructureHash identifies just the molecule (atoms +
	// grouping), the compatibility key for warm starts.
	TopologyHash  string `json:"topology_hash,omitempty"`
	StructureHash string `json:"structure_hash,omitempty"`
	Atoms         int    `json:"atoms"`
	// Positions is the posterior mean, one [x y z] per atom (Å).
	Positions [][3]float64 `json:"positions"`
	// CoordVariances is the posterior covariance diagonal: one variance
	// (Å²) per coordinate, 3 per atom, laid out (x₀,y₀,z₀,x₁,…).
	CoordVariances []float64 `json:"coord_variances"`
	// Cov is the full posterior covariance (3n×3n, row-major rows): present
	// only for a posterior a flat solve produced, and over HTTP only when
	// everything retained was asked for (?cov=full). A hierarchical job's
	// document never has it. Flat-mode warm starts continue from it, or
	// from the diagonal without it; hierarchical warm starts read only the
	// diagonal.
	Cov [][]float64 `json:"cov,omitempty"`
}

// NewPosteriorDoc assembles the wire form of a posterior. cov may be nil;
// when given it must be a square matrix of side 3·len(pos).
func NewPosteriorDoc(pos []geom.Vec3, coordVar []float64, cov *mat.Mat) PosteriorDoc {
	doc := PosteriorDoc{
		Atoms:          len(pos),
		Positions:      make([][3]float64, len(pos)),
		CoordVariances: append([]float64(nil), coordVar...),
	}
	for i, p := range pos {
		doc.Positions[i] = p
	}
	if cov != nil {
		doc.Cov = make([][]float64, cov.Rows)
		for i := range doc.Cov {
			doc.Cov[i] = append([]float64(nil), cov.Row(i)...)
		}
	}
	return doc
}

// Decode validates the document and returns its pieces in solver form:
// positions, the per-coordinate variance diagonal, and the full covariance
// (nil when the document carries only the diagonal).
func (d *PosteriorDoc) Decode() (pos []geom.Vec3, coordVar []float64, cov *mat.Mat, err error) {
	n := len(d.Positions)
	if n == 0 {
		return nil, nil, nil, fmt.Errorf("encode: posterior has no positions")
	}
	if d.Atoms != 0 && d.Atoms != n {
		return nil, nil, nil, fmt.Errorf("encode: posterior declares %d atoms but carries %d positions", d.Atoms, n)
	}
	if len(d.CoordVariances) != 3*n {
		return nil, nil, nil, fmt.Errorf("encode: posterior has %d coordinate variances, want %d", len(d.CoordVariances), 3*n)
	}
	for i, v := range d.CoordVariances {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, nil, fmt.Errorf("encode: posterior coordinate variance %d is %g", i, v)
		}
	}
	pos = make([]geom.Vec3, n)
	for i, p := range d.Positions {
		pos[i] = p
	}
	coordVar = append([]float64(nil), d.CoordVariances...)
	if d.Cov != nil {
		if len(d.Cov) != 3*n {
			return nil, nil, nil, fmt.Errorf("encode: posterior covariance has %d rows, want %d", len(d.Cov), 3*n)
		}
		cov = mat.New(3*n, 3*n)
		for i, row := range d.Cov {
			if len(row) != 3*n {
				return nil, nil, nil, fmt.Errorf("encode: posterior covariance row %d has %d entries, want %d", i, len(row), 3*n)
			}
			copy(cov.Row(i), row)
		}
	}
	return pos, coordVar, cov, nil
}

// NewSolutionDoc assembles the wire form from solver outputs. diag may be
// nil; a snapshot with no containment events is omitted from the document
// so healthy results stay unchanged on the wire.
func NewSolutionDoc(name string, pos []geom.Vec3, variances []float64, cycles int, converged bool, rmsChange, residual float64, diag *filter.DiagSnapshot) SolutionDoc {
	doc := SolutionDoc{
		Name:      name,
		Converged: converged,
		Cycles:    cycles,
		RMSChange: rmsChange,
		Residual:  residual,
		Positions: make([][3]float64, len(pos)),
		Variances: append([]float64(nil), variances...),
	}
	if diag != nil && (diag.RidgeRetries > 0 || diag.Rollbacks > 0 || len(diag.Quarantined) > 0) {
		doc.Diagnostics = diag
	}
	for i, p := range pos {
		doc.Positions[i] = p
	}
	return doc
}
