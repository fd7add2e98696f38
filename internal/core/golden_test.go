package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"

	"phmse/internal/molecule"
	"phmse/internal/stats"
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

// goldenCase is one solve the golden tests pin: the golden problem
// perturbed by 0.4 Å at seed 17, solved under cfg — and, for a warm case,
// continued on the problem with extraPairs added, from the posterior of a
// solve under from (cfg when nil).
type goldenCase struct {
	name   string
	cfg    Config
	warm   bool
	from   *Config
	cycles int
	digest string
}

// goldenCases are the golden solves: both organizations, one and two
// processors, and the warm starts — flat-warm from a flat posterior's full
// covariance, flat-warm-diag from the covariance diagonal a hierarchical
// posterior carries.
var goldenCases = func() []goldenCase {
	flat := Config{Mode: Flat, Procs: 2, MaxCycles: 12}
	return []goldenCase{
		{name: "hier-procs1", cfg: Config{Mode: Hierarchical, Procs: 1, MaxCycles: 500}, cycles: 30, digest: "405d75b5d20cf8af"},
		{name: "hier-procs2", cfg: Config{Mode: Hierarchical, Procs: 2, MaxCycles: 500}, cycles: 30, digest: "405d75b5d20cf8af"},
		{name: "flat", cfg: flat, cycles: 12, digest: "a07473afe7a8612e"},
		{name: "warm", cfg: Config{Mode: Hierarchical, Procs: 2, MaxCycles: 500}, warm: true, cycles: 4, digest: "327de4c687450d84"},
		{name: "flat-warm", cfg: flat, warm: true, cycles: 12, digest: "a01fbda47500f792"},
		{name: "flat-warm-diag", cfg: flat, warm: true, from: &Config{Mode: Hierarchical, Procs: 2, MaxCycles: 500}, cycles: 10, digest: "39921d5b926871ae"},
	}
}()

// solve runs the golden case.
func (c goldenCase) solve(t *testing.T) *Solution {
	t.Helper()
	base := baseProblem()
	from := c.cfg
	if c.from != nil {
		from = *c.from
	}
	est, err := New(base, from)
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
	return sol
}

// TestGoldenSolutionDigests pins the solver's output bit for bit. The
// digests were recorded before the covariance update was moved to the
// register-tiled lower-triangle kernel, the verify-before-commit guard and
// the four-row triangular solve, and recorded again once, when the m-m
// tiles fused their multiply-adds (TestGoldenSolutionsNearUnfusedReference
// bounds that move); a kernel change that reorders a single floating-point
// operation, in any organization or update form, fails here. The m-m
// kernel's bits are the same on every GOARCH and GOAMD64 level, since it
// fuses by math.FMA or VFMADD231PD; the other classes' loops are plain
// `s += x*y`, which Go compiles to a fused multiply-add on arm64 and some
// other architectures but not on amd64, so the recorded bits are amd64's.
func TestGoldenSolutionDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digests were recorded on amd64")
	}
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			sol := c.solve(t)
			if got := solutionDigest(sol); sol.Cycles != c.cycles || got != c.digest {
				t.Fatalf("cycles %d digest %s, recorded %d %s", sol.Cycles, got, c.cycles, c.digest)
			}
		})
	}
}

// How far a golden solve may lie from the unfused reference: the largest
// |Δx| in posterior σ and the largest relative change of an atom's
// variance. A converged solve has damped a change of rounding back to
// rounding size: fusing the m-m multiply-adds moved the four converged cases
// by at most 6.3e-12 σ and 3.0e-12 in relative variance. The two flat cases
// stop at MaxCycles with the iteration still moving (RMS change 0.27 and
// 0.010 Å), so the same change still shows there, as 2.2e-8 σ and 8.6e-10.
// Each bound is the measured drift times at least 4, rounded up to a power
// of ten.
const (
	convergedSigma, convergedRelVar = 1e-10, 1e-10
	stoppedSigma, stoppedRelVar     = 1e-7, 1e-8
)

// TestGoldenSolutionsNearUnfusedReference holds each golden solve to the
// answer the solver gave before its m-m tiles fused their multiply-adds,
// recorded in testdata/golden_unfused.json (positions, summed variances
// and cycles of each case): the same number of cycles, and every atom
// within the tolerance above (stats.Compare) — the stopped one where the
// reference ran to MaxCycles. The digests above pin the bits; this pins
// what a change of rounding may do to the answer.
func TestGoldenSolutionsNearUnfusedReference(t *testing.T) {
	data, err := os.ReadFile("testdata/golden_unfused.json")
	if err != nil {
		t.Fatal(err)
	}
	var refs map[string]stats.Estimate
	if err := json.Unmarshal(data, &refs); err != nil {
		t.Fatal(err)
	}
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			ref, ok := refs[c.name]
			if !ok {
				t.Fatal("no recorded reference")
			}
			sol := c.solve(t)
			d := stats.Compare(ref, stats.Estimate{Positions: sol.Positions, Variances: sol.Variances, Cycles: sol.Cycles})
			sigma, relVar := convergedSigma, convergedRelVar
			if ref.Cycles == c.cfg.MaxCycles {
				sigma, relVar = stoppedSigma, stoppedRelVar
			}
			t.Logf("against the unfused reference: %v", d)
			if d.Cycles != d.RefCycles || d.Sigma > sigma || d.RelVar > relVar {
				t.Fatalf("%v; tolerance %g σ, %g relative variance, the same cycles", d, sigma, relVar)
			}
		})
	}
}
