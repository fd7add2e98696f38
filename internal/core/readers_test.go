package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"phmse/internal/molecule"
)

// readerDigest hashes what the covariance readers report from a solved
// state: the flat posterior's full covariance (flat only), every atom's
// ellipsoid, the correlation of every ordered atom pair, and the
// uncertainty report.
func readerDigest(t *testing.T, sol *Solution) string {
	t.Helper()
	h := sha256.New()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	if cov := sol.Posterior().Cov; cov != nil {
		for i := 0; i < cov.Rows; i++ {
			for _, v := range cov.Row(i) {
				put(v)
			}
		}
	}
	n := len(sol.Positions)
	for a := 0; a < n; a++ {
		e, err := sol.Ellipsoid(a)
		if err != nil {
			t.Fatalf("atom %d: %v", a, err)
		}
		for k := 0; k < 3; k++ {
			put(e.Sigmas[k])
			put(e.Axes[k][0])
			put(e.Axes[k][1])
			put(e.Axes[k][2])
		}
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			put(sol.Correlation(a, b))
		}
	}
	h.Write([]byte(sol.UncertaintyReport(5)))
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestReaderDigests pins, bit for bit, every value the covariance readers
// report on the golden problem: Posterior().Cov, Ellipsoid, Correlation over
// all atom pairs and UncertaintyReport. The digests were recorded while the
// solver still mirrored C onto its upper triangle, so a reader that takes an
// entry from the wrong side of the diagonal, or sums in another order,
// fails here. They were recorded again, unchanged otherwise, when the m-m
// tiles fused their multiply-adds (the solves moved as the golden hier-procs2
// and flat cases do). Recorded on amd64, like the solution digests.
func TestReaderDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("reader digests were recorded on amd64")
	}
	base := baseProblem()
	for _, c := range []struct {
		name   string
		cfg    Config
		digest string
	}{
		{name: "hier", cfg: Config{Mode: Hierarchical, Procs: 2, MaxCycles: 500}, digest: "89442c6bbfe0d3db"},
		{name: "flat", cfg: Config{Mode: Flat, Procs: 2, MaxCycles: 12}, digest: "f40eafab4226329c"},
	} {
		t.Run(c.name, func(t *testing.T) {
			est, err := New(base, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			sol, err := est.Solve(molecule.Perturbed(base, 0.4, 17))
			if err != nil {
				t.Fatal(err)
			}
			if got := readerDigest(t, sol); got != c.digest {
				t.Fatalf("reader digest %s, recorded %s", got, c.digest)
			}
		})
	}
}
