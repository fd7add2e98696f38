// Command helixgen generates structure-estimation problem files: RNA
// double helices of configurable length (the paper's §3.1 workload) or the
// synthetic 30S ribosomal subunit (§4.4), in the JSON interchange format
// consumed by msesolve.
//
// Usage:
//
//	helixgen -bp 16 -o helix16.json
//	helixgen -ribo -seed 1996 -o ribo.json
//	helixgen -bp 4 -anchors 4
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"phmse/internal/encode"
	"phmse/internal/molecule"
)

// options holds helixgen's flag values.
type options struct {
	bp, protein, helices, coils, proteins, anchors int
	ribo                                           bool
	seed                                           int64
	sigma                                          float64
	out                                            string
}

// newFlagSet registers every helixgen flag, bound to o.
func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("helixgen", flag.ContinueOnError)
	fs.IntVar(&o.bp, "bp", 4, "helix length in base pairs")
	fs.BoolVar(&o.ribo, "ribo", false, "generate the synthetic 30S ribosome instead of a helix")
	fs.IntVar(&o.protein, "protein", 0, "generate a synthetic protein with this many residues instead")
	fs.IntVar(&o.helices, "helices", 65, "ribosome: number of double-helix segments")
	fs.IntVar(&o.coils, "coils", 65, "ribosome: number of coil segments")
	fs.IntVar(&o.proteins, "proteins", 21, "ribosome: number of protein reference points")
	fs.Int64Var(&o.seed, "seed", 1996, "generator seed (ribosome and protein)")
	fs.IntVar(&o.anchors, "anchors", 0, "anchor the first N atoms at their reference positions")
	fs.Float64Var(&o.sigma, "anchor-sigma", 0.05, "anchor standard deviation (Å)")
	fs.StringVar(&o.out, "o", "", "output file (default stdout)")
	return fs
}

// parseFlags parses args into options. A flag helixgen does not have, a
// stray argument or an invalid value — a non-finite -anchor-sigma among
// them — is an error, reported before any output file is created; main
// answers it with exit status 2.
func parseFlags(args []string, out io.Writer) (options, error) {
	var o options
	fs := newFlagSet(&o)
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	var err error
	switch {
	case fs.NArg() > 0:
		err = fmt.Errorf("unexpected arguments: %v", fs.Args())
	case o.bp < 1:
		err = fmt.Errorf("-bp must be >= 1, got %d", o.bp)
	case o.protein < 0:
		err = fmt.Errorf("-protein must be >= 0, got %d", o.protein)
	case o.ribo && (o.helices < 1 || o.coils < 0 || o.proteins < 0):
		err = fmt.Errorf("-helices must be >= 1 and -coils/-proteins >= 0, got %d/%d/%d", o.helices, o.coils, o.proteins)
	case o.anchors < 0:
		err = fmt.Errorf("-anchors must be >= 0, got %d", o.anchors)
	case o.anchors > 0 && !(o.sigma > 0 && o.sigma < math.Inf(1)):
		err = fmt.Errorf("-anchor-sigma must be positive and finite, got %g", o.sigma)
	}
	if err != nil {
		fmt.Fprintf(out, "helixgen: %v\n", err)
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
		os.Exit(2)
	}

	var p *molecule.Problem
	switch {
	case o.protein > 0:
		p = molecule.Protein(o.protein, o.seed)
	case o.ribo:
		p = molecule.Ribo30SWith(molecule.Ribo30SConfig{
			Helices: o.helices, Coils: o.coils, Proteins: o.proteins, Seed: o.seed,
		})
	default:
		p = molecule.Helix(o.bp)
	}
	if o.anchors > 0 {
		p = molecule.WithAnchors(p, o.anchors, o.sigma)
	}

	if o.out == "" {
		err = encode.WriteProblem(os.Stdout, p)
	} else {
		err = writeFile(o.out, p)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "helixgen:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s: %d atoms, %d constraints (%d scalar)\n",
		p.Name, len(p.Atoms), p.Constraints.Len(), p.ScalarDim())
}

// writeFile writes the problem to path, reporting a failed close as well
// as a failed write.
func writeFile(path string, p *molecule.Problem) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := encode.WriteProblem(f, p); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
