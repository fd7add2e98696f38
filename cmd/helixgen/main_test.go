package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"phmse/internal/encode"
	"phmse/internal/molecule"
)

// TestFlagSet pins helixgen's flags: adding or removing one is a decision.
func TestFlagSet(t *testing.T) {
	want := []string{"anchor-sigma", "anchors", "bp", "coils", "helices", "o", "protein", "proteins", "ribo", "seed"}
	var got []string
	newFlagSet(&options{}).VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	if !slices.Equal(got, want) {
		t.Fatalf("flags = %v, want %v", got, want)
	}
}

// TestFlagsRefused: an unknown flag, a stray argument and out-of-range
// values — a non-finite anchor sigma among them — are errors (exit 2).
func TestFlagsRefused(t *testing.T) {
	for _, args := range [][]string{
		{"-nope"}, {"stray"}, {"-bp", "0"}, {"-protein", "-1"}, {"-anchors", "-1"},
		{"-ribo", "-helices", "0"}, {"-ribo", "-coils", "-1"}, {"-ribo", "-proteins", "-1"},
		{"-bp", "1", "-anchors", "4", "-anchor-sigma", "0"},
		{"-bp", "1", "-anchors", "4", "-anchor-sigma", "NaN", "-o", "f.json"},
		{"-bp", "1", "-anchors", "4", "-anchor-sigma", "+Inf", "-o", "f.json"},
	} {
		if _, err := parseFlags(args, io.Discard); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// TestFlagsSelectOptions: the flags land in their options, and the
// defaults hold without them.
func TestFlagsSelectOptions(t *testing.T) {
	o, err := parseFlags([]string{"-bp", "8", "-ribo", "-protein", "3", "-helices", "5", "-coils", "6", "-proteins", "7",
		"-seed", "9", "-anchors", "2", "-anchor-sigma", "0.5", "-o", "p.json"}, io.Discard)
	want := options{bp: 8, protein: 3, helices: 5, coils: 6, proteins: 7, anchors: 2, ribo: true, seed: 9, sigma: 0.5, out: "p.json"}
	if err != nil || o != want {
		t.Fatalf("options = %+v, %v; want %+v", o, err, want)
	}
	o, err = parseFlags(nil, io.Discard)
	want = options{bp: 4, helices: 65, coils: 65, proteins: 21, seed: 1996, sigma: 0.05}
	if err != nil || o != want {
		t.Fatalf("defaults: %v, %+v", err, o)
	}
}

// TestWriteFile: the file holds the problem, whole.
func TestWriteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.json")
	p := molecule.WithAnchors(molecule.Helix(1), 4, 0.05)
	if err := writeFile(path, p); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := encode.ReadProblem(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Atoms) != len(p.Atoms) || got.Constraints.Len() != p.Constraints.Len() {
		t.Fatalf("read back %d atoms, %d constraints; wrote %d, %d", len(got.Atoms), got.Constraints.Len(), len(p.Atoms), p.Constraints.Len())
	}
}
