package workest

import (
	"math"
	"testing"
)

// synthetic generates Table 2 style measurements from a known polynomial
// with small multiplicative noise.
func synthetic(truth Model) []Measurement {
	var out []Measurement
	for i, atoms := range []int{43, 86, 170, 340} {
		for j, m := range []int{4, 8, 16, 32, 64, 128} {
			t := truth.PerScalar(3*atoms, m)
			noise := 1 + 0.01*float64((i*7+j*3)%5-2)
			out = append(out, Measurement{NodeAtoms: atoms, BatchDim: m, PerScalar: t * noise})
		}
	}
	return out
}

func TestFitRecoversKnownModel(t *testing.T) {
	truth := Model{N2: 2e-8, NM: 3e-7, N: 1e-6, M: 2e-6, Const: 1e-5}
	ms := synthetic(truth)
	fit, err := Fit(ms, 4)
	if err != nil {
		t.Fatal(err)
	}
	if fit.N2 <= 0 {
		t.Fatal("leading coefficient not positive")
	}
	r2 := fit.RSquared(ms, 4)
	if r2 < 0.99 {
		t.Fatalf("R² = %g", r2)
	}
	// Predictions near the truth across the grid.
	for _, atoms := range []int{43, 340} {
		for _, m := range []int{8, 64} {
			want := truth.PerScalar(3*atoms, m)
			got := fit.PerScalar(3*atoms, m)
			if math.Abs(got-want)/want > 0.15 {
				t.Fatalf("n=%d m=%d: fit %g vs truth %g", atoms, m, got, want)
			}
		}
	}
}

func TestFitChecksGuardrails(t *testing.T) {
	// All-negative observations force coefficients to zero, violating the
	// positive-leading-coefficient check.
	var ms []Measurement
	for _, atoms := range []int{43, 86, 170} {
		for _, m := range []int{8, 16, 32} {
			ms = append(ms, Measurement{NodeAtoms: atoms, BatchDim: m, PerScalar: -1})
		}
	}
	if _, err := Fit(ms, 4); err == nil {
		t.Fatal("fit accepted a non-growth model")
	}
}

func TestFitRequiresEnoughData(t *testing.T) {
	ms := []Measurement{{NodeAtoms: 43, BatchDim: 16, PerScalar: 1}}
	if _, err := Fit(ms, 4); err == nil {
		t.Fatal("fit accepted underdetermined data")
	}
}

func TestFitExcludesSmallBatches(t *testing.T) {
	truth := Model{N2: 2e-8, NM: 3e-7, Const: 1e-5}
	ms := synthetic(truth)
	// Poison the small-batch cells: Fit must ignore them with minBatch 4.
	ms = append(ms, Measurement{NodeAtoms: 43, BatchDim: 1, PerScalar: 999})
	fit, err := Fit(ms, 4)
	if err != nil {
		t.Fatal(err)
	}
	if fit.PerScalar(3*43, 16) > 10*truth.PerScalar(3*43, 16) {
		t.Fatal("small-batch outlier leaked into the fit")
	}
}

func TestModelNodeWork(t *testing.T) {
	m := Model{N2: 1e-8, Const: 1e-5}
	if m.NodeWork(300, 0, 16) != 0 {
		t.Fatal("zero constraints should cost nothing")
	}
	w1 := m.NodeWork(300, 100, 16)
	w2 := m.NodeWork(300, 200, 16)
	if math.Abs(w2-2*w1) > 1e-12 {
		t.Fatal("work not linear in constraint count")
	}
	// Batch dimension clamps to the available constraints.
	if m.NodeWork(300, 3, 16) != 3*m.PerScalar(300, 3) {
		t.Fatal("batch clamp")
	}
	if m.String() == "" {
		t.Fatal("String")
	}
}

func TestFlopModelComplexityShape(t *testing.T) {
	f := FlopModel{}
	// Quadratic growth in n (§2: O(n²) per scalar constraint).
	small := f.PerScalar(100, 16)
	big := f.PerScalar(1000, 16)
	ratio := big / small
	if ratio < 50 || ratio > 150 {
		t.Fatalf("n² growth ratio %g", ratio)
	}
	// Work increases with batch size at fixed n (per-scalar FLOP view).
	if f.PerScalar(500, 64) <= f.PerScalar(500, 8) {
		t.Fatal("no batch-size growth")
	}
	if f.NodeWork(100, 0, 16) != 0 {
		t.Fatal("zero constraints")
	}
}

func TestMeasureTable2Smoke(t *testing.T) {
	// A tiny instance of the Table 2 experiment: real kernels, scaled way
	// down. Checks plumbing, positivity, and the qualitative size effect.
	// Each cell takes microseconds, so one slow moment on a loaded host can
	// invert a comparison: the size effect is judged on per-cell minima
	// over three replicates.
	const replicates = 3
	var ms []Measurement
	for r := 0; r < replicates; r++ {
		rep := MeasureTable2([]int{16, 64}, []int{2, 8}, 0.5)
		if len(rep) != 4 {
			t.Fatalf("replicate %d: measurements = %d", r, len(rep))
		}
		for i, m := range rep {
			if m.PerScalar <= 0 {
				t.Fatalf("replicate %d: non-positive measurement: %+v", r, m)
			}
			if r == 0 {
				ms = append(ms, m)
			} else if m.NodeAtoms != ms[i].NodeAtoms || m.BatchDim != ms[i].BatchDim {
				t.Fatalf("replicate %d: cell %d is %+v, was %+v", r, i, m, ms[i])
			} else {
				ms[i].PerScalar = math.Min(ms[i].PerScalar, m.PerScalar)
			}
		}
	}
	// Bigger nodes must cost more per scalar constraint at equal batch.
	var small, big float64
	for _, m := range ms {
		if m.BatchDim == 8 {
			if m.NodeAtoms == 16 {
				small = m.PerScalar
			} else {
				big = m.PerScalar
			}
		}
	}
	if big <= small {
		t.Fatalf("per-constraint time did not grow with node size: %g vs %g (minima of %d replicates)", small, big, replicates)
	}
}

func TestBestBatch(t *testing.T) {
	ms := []Measurement{
		{NodeAtoms: 43, BatchDim: 4, PerScalar: 3},
		{NodeAtoms: 43, BatchDim: 16, PerScalar: 1},
		{NodeAtoms: 43, BatchDim: 64, PerScalar: 2},
		{NodeAtoms: 86, BatchDim: 16, PerScalar: 5},
	}
	if got := BestBatch(ms, 43); got != 16 {
		t.Fatalf("BestBatch = %d", got)
	}
	if got := BestBatch(ms, 999); got != 0 {
		t.Fatalf("missing node size: %d", got)
	}
}
