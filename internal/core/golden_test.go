package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"phmse/internal/molecule"
)

// solutionDigest hashes the exact bit patterns of everything a solve
// reports numerically: positions, per-atom variances and the cycle count.
func solutionDigest(sol *Solution) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, p := range sol.Positions {
		put(p[0])
		put(p[1])
		put(p[2])
	}
	for _, v := range sol.Variances {
		put(v)
	}
	binary.LittleEndian.PutUint64(buf[:], uint64(sol.Cycles))
	h.Write(buf[:])
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestGoldenSolutionDigests pins the solver's output bit for bit. The
// digests were recorded before the covariance update was moved to the
// register-tiled lower-triangle kernel, the verify-before-commit guard and
// the four-row triangular solve; a kernel change that reorders a single
// floating-point operation, in any organization or update form, fails here.
// Go fuses multiply-adds on some other architectures, so the recorded bits
// are amd64's.
func TestGoldenSolutionDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digests were recorded on amd64")
	}
	base := baseProblem()
	cases := []struct {
		name   string
		cfg    Config
		warm   bool
		cycles int
		digest string
	}{
		{name: "hier-procs1", cfg: Config{Mode: Hierarchical, Procs: 1, MaxCycles: 500}, cycles: 30, digest: "f5e988c78526b2a2"},
		{name: "hier-procs2", cfg: Config{Mode: Hierarchical, Procs: 2, MaxCycles: 500}, cycles: 30, digest: "f5e988c78526b2a2"},
		{name: "flat", cfg: Config{Mode: Flat, Procs: 2, MaxCycles: 12}, cycles: 12, digest: "fcfdb2f10858fda3"},
		{name: "joseph", cfg: Config{Mode: Hierarchical, Procs: 2, MaxCycles: 500, Joseph: true}, cycles: 30, digest: "30a00b784c6b5bb1"},
		{name: "warm", cfg: Config{Mode: Hierarchical, Procs: 2, MaxCycles: 500}, warm: true, cycles: 4, digest: "0e563f8aa9daf984"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			est, err := New(base, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			sol, err := est.Solve(molecule.Perturbed(base, 0.4, 17))
			if err != nil {
				t.Fatal(err)
			}
			if c.warm {
				combined := withExtraConstraints(base, extraPairs(base), 0.1)
				warmEst, err := New(combined, c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if sol, err = warmEst.SolveFrom(context.Background(), sol.Posterior()); err != nil {
					t.Fatal(err)
				}
			}
			if got := solutionDigest(sol); sol.Cycles != c.cycles || got != c.digest {
				t.Fatalf("cycles %d digest %s, recorded %d %s", sol.Cycles, got, c.cycles, c.digest)
			}
		})
	}
}
