// Command msesolve estimates a molecular structure from a problem file
// produced by helixgen (or hand-written in the same JSON format), using the
// flat or the parallel hierarchical organization.
//
// Usage:
//
//	msesolve -in helix16.json -mode hier -procs 4
//	msesolve -in ribo.json -conform -v
//
// A converged posterior can be saved and later used to warm-start a
// re-solve of the same molecule (typically with additional constraints):
//
//	msesolve -in helix16.json -save-posterior helix16.post.json
//	msesolve -in helix16_more_data.json -resume helix16.post.json
//
// Exit codes distinguish the failure class for scripting:
//
//	0  solved
//	1  unclassified error
//	2  usage error (bad flags)
//	3  bad input (unreadable or invalid problem/posterior/PDB file)
//	4  solve diverged (RMS change grew without bound)
//	5  innovation covariance indefinite through every ridge retry
//	6  solve produced non-finite values in every batch
//	7  cancelled or timed out
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"

	"phmse/internal/analysis"
	"phmse/internal/conform"
	"phmse/internal/core"
	"phmse/internal/encode"
	"phmse/internal/filter"
	"phmse/internal/geom"
	"phmse/internal/molecule"
	"phmse/internal/pdb"
	"phmse/internal/trace"
)

// Exit codes: the failure classes scripts branch on.
const (
	exitGeneric    = 1
	exitUsage      = 2
	exitBadInput   = 3
	exitDiverged   = 4
	exitIndefinite = 5
	exitNonFinite  = 6
	exitCanceled   = 7
)

// options holds msesolve's flag values.
type options struct {
	in, mode, initPDB, pdbOut, saveOut, resume string
	procs, batch, cycles                       int
	tol, perturb                               float64
	seed                                       int64
	useConf, auto, verbose                     bool
	timeout                                    time.Duration
}

// newFlagSet registers every msesolve flag, bound to o.
func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("msesolve", flag.ContinueOnError)
	fs.StringVar(&o.in, "in", "", "problem file (JSON); required")
	fs.StringVar(&o.mode, "mode", "hier", "organization: flat or hier")
	fs.IntVar(&o.procs, "procs", 1, "number of logical processors")
	fs.IntVar(&o.batch, "batch", 16, "constraint batch dimension")
	fs.IntVar(&o.cycles, "cycles", 100, "maximum constraint-application cycles")
	fs.Float64Var(&o.tol, "tol", 1e-3, "convergence tolerance (RMS Å per cycle)")
	fs.Float64Var(&o.perturb, "perturb", 0.5, "start from reference positions perturbed by this σ (Å)")
	fs.Int64Var(&o.seed, "seed", 1, "random seed for the starting estimate")
	fs.BoolVar(&o.useConf, "conform", false, "start from a discrete conformational-space search instead")
	fs.StringVar(&o.initPDB, "init", "", "start from coordinates in this PDB file (overrides -perturb/-conform)")
	fs.BoolVar(&o.auto, "auto", false, "derive the hierarchy automatically by graph partitioning")
	fs.BoolVar(&o.verbose, "v", false, "print the per-operation-class time distribution and tree")
	fs.StringVar(&o.pdbOut, "pdb", "", "write the solved structure (PDB format, σ in the B-factor column)")
	fs.DurationVar(&o.timeout, "timeout", 0, "abort the solve after this duration (0 = no limit)")
	fs.StringVar(&o.saveOut, "save-posterior", "", "write the converged posterior (JSON: positions + covariance diagonal; -mode flat adds the 3n×3n covariance) for later -resume")
	fs.StringVar(&o.resume, "resume", "", "warm-start from a posterior saved with -save-posterior in either mode (overrides -perturb/-conform/-init)")
	return fs
}

// parseFlags parses args into options. A flag msesolve does not have, a
// stray argument or an invalid value — a non-finite -tol or -perturb among
// them — is an error; main answers it with exit status 2.
func parseFlags(args []string, out io.Writer) (options, error) {
	var o options
	fs := newFlagSet(&o)
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	var err error
	switch {
	case o.in == "":
		err = errors.New("-in is required")
	case fs.NArg() > 0:
		err = fmt.Errorf("unexpected arguments: %v", fs.Args())
	case o.mode != "flat" && o.mode != "hier":
		err = fmt.Errorf("-mode must be \"flat\" or \"hier\", got %q", o.mode)
	case o.procs < 1:
		err = fmt.Errorf("-procs must be >= 1, got %d", o.procs)
	case o.batch < 1:
		err = fmt.Errorf("-batch must be >= 1, got %d", o.batch)
	case o.cycles < 1:
		err = fmt.Errorf("-cycles must be >= 1, got %d", o.cycles)
	case !(o.tol > 0 && o.tol < math.Inf(1)):
		err = fmt.Errorf("-tol must be positive and finite, got %g", o.tol)
	case !(o.perturb >= 0 && o.perturb < math.Inf(1)):
		err = fmt.Errorf("-perturb must be >= 0 and finite, got %g", o.perturb)
	case o.timeout < 0:
		err = fmt.Errorf("-timeout must be >= 0, got %v", o.timeout)
	}
	if err != nil {
		fmt.Fprintf(out, "msesolve: %v\n", err)
		fs.Usage()
	}
	return o, err
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(exitUsage)
	}

	f, err := os.Open(o.in)
	if err != nil {
		fatalInput(err)
	}
	p, err := encode.ReadProblem(f)
	f.Close()
	if err != nil {
		fatalInput(err)
	}
	fmt.Printf("problem %s: %d atoms, %d constraints (%d scalar)\n",
		p.Name, len(p.Atoms), p.Constraints.Len(), p.ScalarDim())

	m := core.Hierarchical
	if o.mode == "flat" {
		m = core.Flat
	}
	var rec trace.Collector
	est, err := core.New(p, core.Config{
		Mode:          m,
		Procs:         o.procs,
		BatchSize:     o.batch,
		MaxCycles:     o.cycles,
		Tol:           o.tol,
		Recorder:      &rec,
		AutoDecompose: o.auto,
	})
	if err != nil {
		fatal(err)
	}
	if o.verbose {
		fmt.Println("hierarchy:")
		fmt.Print(est.Root().Dump())
	}

	ctx := context.Background()
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}

	var post *core.Posterior
	if o.resume != "" {
		post, err = readPosterior(o.resume, p)
		if err != nil {
			fatalInput(err)
		}
		fmt.Printf("resuming from posterior %s\n", o.resume)
	}

	var init []geom.Vec3
	switch {
	case post != nil:
		// Warm start: positions and covariance both come from the posterior.
	case o.initPDB != "":
		f, err := os.Open(o.initPDB)
		if err != nil {
			fatalInput(err)
		}
		_, pos, err := pdb.Read(f)
		f.Close()
		if err != nil {
			fatalInput(err)
		}
		if len(pos) != len(p.Atoms) {
			fatalInput(fmt.Errorf("%s has %d atoms, problem has %d", o.initPDB, len(pos), len(p.Atoms)))
		}
		init = pos
	case o.useConf:
		fmt.Println("running discrete conformational-space search for the initial estimate...")
		init = conform.Search(len(p.Atoms), &p.Constraints, conform.Options{Seed: o.seed})
	default:
		init = molecule.Perturbed(p, o.perturb, o.seed)
	}

	start := time.Now()
	var sol *core.Solution
	if post != nil {
		sol, err = est.SolveFrom(ctx, post)
	} else {
		sol, err = est.SolveContext(ctx, init)
	}
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			err = fmt.Errorf("solve did not finish within -timeout %v: %w", o.timeout, err)
		}
		fmt.Fprintln(os.Stderr, "msesolve:", err)
		os.Exit(solveExitCode(err))
	}
	elapsed := time.Since(start)

	fmt.Printf("mode=%s procs=%d batch=%d: %d cycles in %v (converged=%v, final RMS change %.2e)\n",
		m, o.procs, o.batch, sol.Cycles, elapsed.Round(time.Millisecond), sol.Converged, sol.RMSChange)
	fmt.Printf("weighted constraint residual: %.4f\n", sol.Residual)
	fmt.Printf("RMSD to reference geometry: %.4f Å\n", molecule.RMSD(sol.Positions, p.TruePositions()))

	// Uncertainty summary: the covariance diagonal tells which parts of
	// the molecule the data defines well.
	vars := append([]float64(nil), sol.Variances...)
	sort.Float64s(vars)
	fmt.Printf("per-atom positional variance (Å²): min %.3g  median %.3g  max %.3g\n",
		vars[0], vars[len(vars)/2], vars[len(vars)-1])
	rms := 0.0
	for _, v := range sol.Variances {
		rms += v
	}
	fmt.Printf("mean positional σ: %.3f Å\n", math.Sqrt(rms/float64(len(vars))))

	if o.verbose {
		fmt.Println("time distribution:", rec.Times().Format())
		printDiagnostics(sol.Diagnostics)
		fmt.Print(sol.UncertaintyReport(3))
		fmt.Println("residuals by constraint type:")
		fmt.Print(analysis.FormatResiduals(analysis.ResidualByType(sol.Positions, &p.Constraints)))
	}

	if o.pdbOut != "" {
		f, err := os.Create(o.pdbOut)
		if err != nil {
			fatal(err)
		}
		sigma := make([]float64, len(sol.Variances))
		for i, v := range sol.Variances {
			sigma[i] = math.Sqrt(v)
		}
		err = pdb.Write(f, p.Name, p.Atoms, sol.Positions, sigma)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		fmt.Println("wrote", o.pdbOut)
	}

	if o.saveOut != "" {
		if err := writePosterior(o.saveOut, p, sol); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", o.saveOut)
	}
}

// writePosterior saves the solution's posterior — positions and the
// covariance diagonal, plus the full covariance after a -mode flat solve —
// in the same wire form the daemon serves, for a later -resume.
func writePosterior(path string, p *molecule.Problem, sol *core.Solution) error {
	post := sol.Posterior()
	doc := encode.NewPosteriorDoc(post.Positions, post.CoordVariances, post.Cov)
	doc.Problem = p.Name
	doc.TopologyHash = encode.TopologyHash(p)
	doc.StructureHash = encode.StructureHash(p)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	err = enc.Encode(doc)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// readPosterior loads a saved posterior and checks it belongs to the same
// molecule as the problem being solved: the structure hash must match when
// the document carries one (constraints may differ freely).
func readPosterior(path string, p *molecule.Problem) (*core.Posterior, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc encode.PosteriorDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.StructureHash != "" && doc.StructureHash != encode.StructureHash(p) {
		return nil, fmt.Errorf("%s was solved for a different molecule than %s (structure hash mismatch)", path, p.Name)
	}
	pos, coordVar, cov, err := doc.Decode()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &core.Posterior{Positions: pos, CoordVariances: coordVar, Cov: cov}, nil
}

// printDiagnostics summarizes the solve's fault-containment activity: how
// hard the numerical guards had to work to deliver the estimate.
func printDiagnostics(d *filter.DiagSnapshot) {
	if d == nil {
		return
	}
	fmt.Printf("containment: %d ridge retries, %d rollbacks, %d quarantined batches, %d cycles traced\n",
		d.RidgeRetries, d.Rollbacks, len(d.Quarantined), len(d.RMSTrajectory))
	for _, q := range d.Quarantined {
		where := fmt.Sprintf("batch %d", q.Batch)
		if q.Node != "" {
			where = fmt.Sprintf("node %q %s", q.Node, where)
		}
		fmt.Printf("  quarantined %s: %s, cycles %d..%d (%d total)\n",
			where, q.Reason, q.FirstCycle, q.LastCycle, q.Cycles)
	}
}

// solveExitCode maps a solve failure onto the documented exit codes.
func solveExitCode(err error) int {
	switch {
	case errors.Is(err, filter.ErrDiverged):
		return exitDiverged
	case errors.Is(err, filter.ErrIndefinite):
		return exitIndefinite
	case errors.Is(err, filter.ErrNonFinite):
		return exitNonFinite
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return exitCanceled
	default:
		return exitGeneric
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "msesolve:", err)
	os.Exit(exitGeneric)
}

// fatalInput reports an unreadable or invalid input file.
func fatalInput(err error) {
	fmt.Fprintln(os.Stderr, "msesolve:", err)
	os.Exit(exitBadInput)
}
