package constraint

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"phmse/internal/geom"
)

// pinRow is one constraint in a form that does not depend on how the
// package stores constraints: its kind, atoms, values and σ. linearise
// (linearise_test.go) evaluates it through the package's evaluator.
type pinRow struct {
	kind  string // "distance", "angle", "torsion", "position" or "bound"
	atoms int    // atom count; the atoms are 0, 1, … in order
	vals  [3]float64
	sigma float64
}

// pinLin is the linearisation of one pinRow at one set of positions: the
// gate decision and, for an active row, per scalar row the prediction,
// observation, noise variance, wrap flag and the Jacobian's non-zero
// entries (column 3·atom+axis, exact zeros skipped).
type pinLin struct {
	active  bool
	h, z, r []float64
	wrap    []bool
	jac     [][]pinEntry
}

type pinEntry struct {
	col int
	val float64
}

// pinCases returns the evaluator's inputs: every kind on seeded positions,
// bounds below, inside and above their limits, and the degenerate
// configurations the evaluator special-cases.
func pinCases() (rows []pinRow, pos [][]geom.Vec3) {
	add := func(r pinRow, p ...geom.Vec3) {
		rows = append(rows, r)
		pos = append(pos, p)
	}
	rng := rand.New(rand.NewSource(20260417))
	vec := func() geom.Vec3 {
		return geom.Vec3{4 * rng.NormFloat64(), 4 * rng.NormFloat64(), 4 * rng.NormFloat64()}
	}
	for i := 0; i < 24; i++ {
		sigma := 0.05 + rng.Float64()
		add(pinRow{kind: "distance", atoms: 2, vals: [3]float64{6 * rng.Float64()}, sigma: sigma}, vec(), vec())
		add(pinRow{kind: "angle", atoms: 3, vals: [3]float64{math.Pi * rng.Float64()}, sigma: sigma}, vec(), vec(), vec())
		add(pinRow{kind: "torsion", atoms: 4, vals: [3]float64{2*math.Pi*rng.Float64() - math.Pi}, sigma: sigma}, vec(), vec(), vec(), vec())
		add(pinRow{kind: "position", atoms: 1, vals: [3]float64(vec()), sigma: sigma}, vec())
	}

	// Bounds at r = |(0,0,0)−(r,0,0)|: lower only, upper only, both, and an
	// infinite upper limit, each below, inside and above.
	bound := func(lower, upper, r float64) {
		add(pinRow{kind: "bound", atoms: 2, vals: [3]float64{lower, upper}, sigma: 0.3}, geom.Vec3{}, geom.Vec3{r, 0.25 * r, -0.5 * r})
	}
	for _, r := range []float64{1, 3.5, 7} {
		bound(3, 0, r)
		bound(0, 5, r)
		bound(3, 5, r)
		bound(3, math.Inf(1), r)
		bound(0, 0, r)
	}

	// Coincident atoms.
	p := geom.Vec3{1.5, -2, 0.25}
	add(pinRow{kind: "distance", atoms: 2, vals: [3]float64{1}, sigma: 0.1}, p, p)
	add(pinRow{kind: "bound", atoms: 2, vals: [3]float64{2, 0}, sigma: 0.1}, p, p)
	add(pinRow{kind: "angle", atoms: 3, vals: [3]float64{2}, sigma: 0.1}, p, p, geom.Vec3{0, 1, 0})
	add(pinRow{kind: "angle", atoms: 3, vals: [3]float64{2}, sigma: 0.1}, geom.Vec3{0, 1, 0}, p, p)
	// Collinear angles: straight and folded back.
	add(pinRow{kind: "angle", atoms: 3, vals: [3]float64{2}, sigma: 0.1}, geom.Vec3{-1, 0, 0}, geom.Vec3{}, geom.Vec3{2, 0, 0})
	add(pinRow{kind: "angle", atoms: 3, vals: [3]float64{2}, sigma: 0.1}, geom.Vec3{1, 1, 1}, geom.Vec3{}, geom.Vec3{3, 3, 3})
	// Torsions with |n₁|² or |n₂|² below 1e-18, and with J = K.
	add(pinRow{kind: "torsion", atoms: 4, vals: [3]float64{1}, sigma: 0.1},
		geom.Vec3{-1, 0, 0}, geom.Vec3{}, geom.Vec3{1, 0, 0}, geom.Vec3{1, 1, 0})
	add(pinRow{kind: "torsion", atoms: 4, vals: [3]float64{1}, sigma: 0.1},
		geom.Vec3{0, 1, 0}, geom.Vec3{}, geom.Vec3{1, 0, 0}, geom.Vec3{2, 0, 0})
	add(pinRow{kind: "torsion", atoms: 4, vals: [3]float64{1}, sigma: 0.1},
		geom.Vec3{0, 1, 0}, geom.Vec3{}, geom.Vec3{1e-10, 0, 0}, geom.Vec3{1, 0, 1})
	add(pinRow{kind: "torsion", atoms: 4, vals: [3]float64{1}, sigma: 0.1},
		geom.Vec3{0, 1, 0}, geom.Vec3{}, geom.Vec3{}, geom.Vec3{1, 0, 1})
	// Torsions either side of ±π, observed on the other side.
	for _, eps := range []float64{1e-3, -1e-3, 1e-9, -1e-9} {
		add(pinRow{kind: "torsion", atoms: 4, vals: [3]float64{-math.Pi + 0.01}, sigma: 0.2},
			geom.Vec3{0, 1, 0}, geom.Vec3{}, geom.Vec3{1, 0, 0}, geom.Vec3{1, -1, eps})
		add(pinRow{kind: "torsion", atoms: 4, vals: [3]float64{math.Pi - 0.01}, sigma: 0.2},
			geom.Vec3{0, 1, 0}, geom.Vec3{}, geom.Vec3{1, 0, 0}, geom.Vec3{1, -1, eps})
	}
	return rows, pos
}

// TestEvalBitsPinned holds the evaluator to the bits recorded when every
// kind had its own Eval: h, z, σ², the wrap flags, the gate decision and
// the Jacobian's non-zero entries of every pinCases input.
func TestEvalBitsPinned(t *testing.T) {
	const want = "0d9afc0c0026a922"
	rows, pos := pinCases()
	h := sha256.New()
	var b []byte
	f := func(v float64) { b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v)) }
	active := 0
	for i, r := range rows {
		lin := linearise(r, pos[i])
		b = append(b[:0], r.kind...)
		if !lin.active {
			h.Write(append(b, '-'))
			continue
		}
		active++
		for d := range lin.h {
			f(lin.h[d])
			f(lin.z[d])
			f(lin.r[d])
			if lin.wrap[d] {
				b = append(b, 'w')
			}
			for _, e := range lin.jac[d] {
				b = binary.LittleEndian.AppendUint32(b, uint32(e.col))
				f(e.val)
			}
			b = append(b, ';')
		}
		h.Write(b)
	}
	if active == len(rows) || active < len(rows)-12 {
		t.Fatalf("%d of %d rows active: the bound cases lost their gating", active, len(rows))
	}
	if got := hex.EncodeToString(h.Sum(nil))[:16]; got != want {
		t.Fatalf("evaluator digest %s, want %s", got, want)
	}
}
