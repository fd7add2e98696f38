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
	"flag"
	"fmt"
	"io"
	"os"

	"phmse/internal/encode"
	"phmse/internal/molecule"
)

func main() {
	var (
		bp       = flag.Int("bp", 4, "helix length in base pairs")
		ribo     = flag.Bool("ribo", false, "generate the synthetic 30S ribosome instead of a helix")
		protein  = flag.Int("protein", 0, "generate a synthetic protein with this many residues instead")
		helices  = flag.Int("helices", 65, "ribosome: number of double-helix segments")
		coils    = flag.Int("coils", 65, "ribosome: number of coil segments")
		proteins = flag.Int("proteins", 21, "ribosome: number of protein reference points")
		seed     = flag.Int64("seed", 1996, "generator seed (ribosome and protein)")
		anchors  = flag.Int("anchors", 0, "anchor the first N atoms at their reference positions")
		sigma    = flag.Float64("anchor-sigma", 0.05, "anchor standard deviation (Å)")
		out      = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()
	// Reject bad flag values with a usage message instead of generating a
	// degenerate problem from zero-value defaults.
	switch {
	case flag.NArg() > 0:
		usageError(fmt.Sprintf("unexpected arguments: %v", flag.Args()))
	case *bp < 1:
		usageError(fmt.Sprintf("-bp must be >= 1, got %d", *bp))
	case *protein < 0:
		usageError(fmt.Sprintf("-protein must be >= 0, got %d", *protein))
	case *ribo && (*helices < 1 || *coils < 0 || *proteins < 0):
		usageError(fmt.Sprintf("-helices must be >= 1 and -coils/-proteins >= 0, got %d/%d/%d",
			*helices, *coils, *proteins))
	case *anchors < 0:
		usageError(fmt.Sprintf("-anchors must be >= 0, got %d", *anchors))
	case *anchors > 0 && *sigma <= 0:
		usageError(fmt.Sprintf("-anchor-sigma must be positive, got %g", *sigma))
	}

	var p *molecule.Problem
	if *protein > 0 {
		p = molecule.Protein(*protein, *seed)
	} else if *ribo {
		p = molecule.Ribo30SWith(molecule.Ribo30SConfig{
			Helices: *helices, Coils: *coils, Proteins: *proteins, Seed: *seed,
		})
	} else {
		p = molecule.Helix(*bp)
	}
	if *anchors > 0 {
		p = molecule.WithAnchors(p, *anchors, *sigma)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := encode.WriteProblem(w, p); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s: %d atoms, %d constraints (%d scalar)\n",
		p.Name, len(p.Atoms), p.Constraints.Len(), p.ScalarDim())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "helixgen:", err)
	os.Exit(1)
}

func usageError(msg string) {
	fmt.Fprintln(os.Stderr, "helixgen:", msg)
	flag.Usage()
	os.Exit(2)
}
