package stats

import (
	"math"
	"testing"

	"phmse/internal/geom"
)

func TestCompare(t *testing.T) {
	ref := Estimate{
		Positions: []geom.Vec3{{0, 0, 0}, {1, 2, 3}, {5, 5, 5}},
		Variances: []float64{4, 0.25, 1},
		Cycles:    7,
	}
	if d := Compare(ref, ref); d != (Drift{RefCycles: 7, Cycles: 7}) {
		t.Fatalf("an estimate against itself: %v", d)
	}

	// Atom 0 moves by |(0.3, 0.4, 0)| = 0.5 against σ = 2, atom 1 by 0.05
	// against σ = 0.5; atom 2's variance grows 1 %.
	cand := Estimate{
		Positions: []geom.Vec3{{0.3, 0.4, 0}, {1, 2.05, 3}, {5, 5, 5}},
		Variances: []float64{4, 0.25, 1.01},
		Cycles:    8,
	}
	d := Compare(ref, cand)
	if math.Abs(d.Sigma-0.25) > 1e-15 || math.Abs(d.RelVar-0.01) > 1e-15 || d.RefCycles != 7 || d.Cycles != 8 {
		t.Fatalf("got %v, want 0.25 σ, 0.01, cycles 7 → 8", d)
	}

	// Zero reference variance: an exact match reads 0, a move +Inf.
	zero := Estimate{Positions: []geom.Vec3{{1, 1, 1}}, Variances: []float64{0}}
	if d := Compare(zero, zero); d.Sigma != 0 || d.RelVar != 0 {
		t.Fatalf("exact match at zero variance: %v", d)
	}
	moved := Estimate{Positions: []geom.Vec3{{1, 1, 2}}, Variances: []float64{1e-300}}
	if d := Compare(zero, moved); !math.IsInf(d.Sigma, 1) || !math.IsInf(d.RelVar, 1) {
		t.Fatalf("a move at zero variance: %v", d)
	}

	// Nothing that is not a number passes.
	for _, c := range []Estimate{
		{Positions: []geom.Vec3{{1, math.NaN(), 1}}, Variances: []float64{0}},
		{Positions: []geom.Vec3{{1, 1, 1}}, Variances: []float64{math.NaN()}},
		{Positions: []geom.Vec3{{math.Inf(-1), 1, 1}}, Variances: []float64{math.Inf(1)}},
	} {
		ref := Estimate{Positions: []geom.Vec3{{1, 1, 1}}, Variances: []float64{1}}
		d := Compare(ref, c)
		if !math.IsInf(max(d.Sigma, d.RelVar), 1) {
			t.Errorf("%v against %v: %v", c, ref, d)
		}
	}
}

func TestComparePanicsOnSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Compare(Estimate{Positions: make([]geom.Vec3, 2), Variances: make([]float64, 2)},
		Estimate{Positions: make([]geom.Vec3, 1), Variances: make([]float64, 1)})
}

// z995 is the standard normal 0.995 quantile: a two-sided 99 % band.
const z995 = 2.5758293035489004

// The Wilson–Hilferty quantile against tabulated χ² quantiles.
func TestChi2Quantile(t *testing.T) {
	for _, c := range []struct{ k, z, want float64 }{
		{100, z995, 140.1695},  // χ²₀.₉₉₅(100)
		{100, -z995, 67.3276},  // χ²₀.₀₀₅(100)
		{1000, z995, 1118.948}, // χ²₀.₉₉₅(1000)
		{1000, -z995, 888.564}, // χ²₀.₀₀₅(1000)
	} {
		if got := Chi2Quantile(c.k, c.z); math.Abs(got-c.want) > 1e-3*c.want {
			t.Errorf("Chi2Quantile(%g, %g) = %g, tabulated %g", c.k, c.z, got, c.want)
		}
	}
}
