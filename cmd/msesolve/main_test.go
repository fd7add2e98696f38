package main

import (
	"flag"
	"io"
	"slices"
	"testing"
	"time"
)

// TestFlagSet pins msesolve's flags: adding or removing one is a decision.
func TestFlagSet(t *testing.T) {
	want := []string{"auto", "batch", "conform", "cycles", "in", "init", "mode", "pdb", "perturb", "procs",
		"resume", "save-posterior", "seed", "timeout", "tol", "v"}
	var got []string
	newFlagSet(&options{}).VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	if !slices.Equal(got, want) {
		t.Fatalf("flags = %v, want %v", got, want)
	}
}

// TestFlagsRefused: a missing -in, an unknown flag, a stray argument and
// out-of-range values — non-finite tolerances and perturbations among
// them — are errors (exit 2).
func TestFlagsRefused(t *testing.T) {
	for _, args := range [][]string{
		{}, {"-in", "p.json", "-nope"}, {"-in", "p.json", "stray"}, {"-in", "p.json", "-mode", "tree"},
		{"-in", "p.json", "-procs", "0"}, {"-in", "p.json", "-batch", "0"}, {"-in", "p.json", "-cycles", "0"},
		{"-in", "p.json", "-tol", "0"}, {"-in", "p.json", "-tol", "NaN"}, {"-in", "p.json", "-tol", "Inf"},
		{"-in", "p.json", "-perturb", "-1"}, {"-in", "p.json", "-perturb", "NaN"}, {"-in", "p.json", "-perturb", "+Inf"},
		{"-in", "p.json", "-timeout", "-1s"},
	} {
		if _, err := parseFlags(args, io.Discard); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// TestFlagsSelectOptions: the flags land in their options, and the
// defaults hold without them.
func TestFlagsSelectOptions(t *testing.T) {
	o, err := parseFlags([]string{"-in", "p.json", "-mode", "flat", "-procs", "4", "-batch", "8", "-cycles", "7",
		"-tol", "1e-4", "-perturb", "0", "-seed", "3", "-conform", "-auto", "-v", "-timeout", "2s",
		"-init", "a.pdb", "-pdb", "b.pdb", "-save-posterior", "c.json", "-resume", "d.json"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want := options{in: "p.json", mode: "flat", initPDB: "a.pdb", pdbOut: "b.pdb", saveOut: "c.json", resume: "d.json",
		procs: 4, batch: 8, cycles: 7, tol: 1e-4, perturb: 0, seed: 3, useConf: true, auto: true, verbose: true,
		timeout: 2 * time.Second}
	if o != want {
		t.Fatalf("options = %+v, want %+v", o, want)
	}
	o, err = parseFlags([]string{"-in", "p.json"}, io.Discard)
	want = options{in: "p.json", mode: "hier", procs: 1, batch: 16, cycles: 100, tol: 1e-3, perturb: 0.5, seed: 1}
	if err != nil || o != want {
		t.Fatalf("defaults: %v, %+v", err, o)
	}
}
