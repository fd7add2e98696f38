// Package distgeom implements the distance-geometry baseline the paper's
// related-work section compares against (Crippen [12]; Havel, Kuntz &
// Crippen [13]): interatomic distance bounds are smoothed with the triangle
// inequality, trial distances are sampled within the bounds, and the
// metric-matrix embedding (the top three eigenvectors of the Gram matrix)
// yields candidate coordinates. Unlike the probabilistic estimator it
// produces no uncertainty measure, which is one of the paper's motivations.
package distgeom

import (
	"fmt"
	"math"
	"math/rand"

	"phmse/internal/constraint"
	"phmse/internal/geom"
	"phmse/internal/mat"
)

// Options configures the embedding; zero values select defaults.
type Options struct {
	Seed int64
	// DefaultLower is the lower bound for atom pairs with no data
	// (a van der Waals contact floor; default 1.5 Å).
	DefaultLower float64
	// DefaultUpper is the upper bound for pairs with no data (default: a
	// generous molecule diameter derived from the data).
	DefaultUpper float64
	// SkipSmoothing disables triangle-inequality bound smoothing (for
	// experiments; smoothing is O(n³) and on by default).
	SkipSmoothing bool
}

func (o Options) withDefaults(maxObserved float64) Options {
	if o.DefaultLower <= 0 {
		o.DefaultLower = 1.5
	}
	if o.DefaultUpper <= 0 {
		o.DefaultUpper = 3*maxObserved + 10
	}
	return o
}

// Bounds holds smoothed lower and upper distance bounds for every pair.
type Bounds struct {
	N     int
	Lower *mat.Mat
	Upper *mat.Mat
}

// CollectBounds extracts distance bounds from the constraint set: exact
// distances pin both bounds (within measurement noise); one-sided bounds
// contribute their side; everything else defaults.
func CollectBounds(nAtoms int, cons *constraint.Set, opt Options) *Bounds {
	maxObs := 0.0
	for r := range cons.Len() {
		if d, ok := cons.Row(r).Distance(); ok && d.Target > maxObs {
			maxObs = d.Target
		}
	}
	opt = opt.withDefaults(maxObs)
	b := &Bounds{N: nAtoms, Lower: mat.New(nAtoms, nAtoms), Upper: mat.New(nAtoms, nAtoms)}
	for i := 0; i < nAtoms; i++ {
		for j := 0; j < nAtoms; j++ {
			if i != j {
				b.Lower.Set(i, j, opt.DefaultLower)
				b.Upper.Set(i, j, opt.DefaultUpper)
			}
		}
	}
	// Pairs with data replace the defaults on first sight; further data on
	// the same pair intersects the intervals.
	seen := make(map[[2]int]bool)
	set := func(i, j int, lo, hi float64) {
		key := [2]int{min(i, j), max(i, j)}
		if !seen[key] {
			seen[key] = true
			b.Lower.Set(i, j, lo)
			b.Lower.Set(j, i, lo)
			b.Upper.Set(i, j, hi)
			b.Upper.Set(j, i, hi)
			return
		}
		if lo > b.Lower.At(i, j) {
			b.Lower.Set(i, j, lo)
			b.Lower.Set(j, i, lo)
		}
		if hi < b.Upper.At(i, j) {
			b.Upper.Set(i, j, hi)
			b.Upper.Set(j, i, hi)
		}
	}
	for r := range cons.Len() {
		row := cons.Row(r)
		if d, ok := row.Distance(); ok {
			slack := 2 * d.Sigma
			set(d.I, d.J, math.Max(0, d.Target-slack), d.Target+slack)
		}
		if b, ok := row.Bound(); ok {
			lo, hi := b.Lower, b.Upper
			if lo <= 0 {
				lo = opt.DefaultLower // one-sided upper bound keeps the vdW floor
			}
			if hi <= 0 || math.IsInf(hi, 1) {
				hi = opt.DefaultUpper // absent, as the solver's gate reads it
			}
			set(b.I, b.J, lo, hi)
		}
	}
	return b
}

// Smooth applies triangle-inequality bound smoothing: upper bounds tighten
// through the shortest path (Floyd–Warshall), and lower bounds rise via the
// inverse triangle inequality.
func (b *Bounds) Smooth() error {
	n := b.N
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if i == k {
				continue
			}
			uik := b.Upper.At(i, k)
			for j := 0; j < n; j++ {
				if j == i || j == k {
					continue
				}
				// Upper: d(i,j) ≤ d(i,k) + d(k,j).
				if via := uik + b.Upper.At(k, j); via < b.Upper.At(i, j) {
					b.Upper.Set(i, j, via)
				}
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if i == k {
				continue
			}
			for j := 0; j < n; j++ {
				if j == i || j == k {
					continue
				}
				// Lower: d(i,j) ≥ d(i,k) − d(k,j).
				if via := b.Lower.At(i, k) - b.Upper.At(k, j); via > b.Lower.At(i, j) {
					b.Lower.Set(i, j, via)
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && b.Lower.At(i, j) > b.Upper.At(i, j)+1e-9 {
				return fmt.Errorf("distgeom: inconsistent bounds for (%d,%d): [%g, %g]",
					i, j, b.Lower.At(i, j), b.Upper.At(i, j))
			}
		}
	}
	return nil
}

// Embed runs the full distance-geometry pipeline and returns candidate
// coordinates: bounds → smoothing → trial distances → metric matrix → top
// three eigenvectors.
func Embed(nAtoms int, cons *constraint.Set, opt Options) ([]geom.Vec3, error) {
	if nAtoms == 0 {
		return nil, nil
	}
	b := CollectBounds(nAtoms, cons, opt)
	if !opt.SkipSmoothing {
		if err := b.Smooth(); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	d2 := trialSquaredDistances(b, rng)
	g, err := metricMatrix(d2)
	if err != nil {
		return nil, err
	}
	w, v, err := mat.SymEigen(g)
	if err != nil {
		return nil, err
	}
	pos := make([]geom.Vec3, nAtoms)
	for axis := 0; axis < 3 && axis < len(w); axis++ {
		if w[axis] <= 0 {
			break // degenerate dimension: leave coordinates at zero
		}
		scale := math.Sqrt(w[axis])
		for i := 0; i < nAtoms; i++ {
			pos[i][axis] = scale * v.At(i, axis)
		}
	}
	return pos, nil
}

// trialSquaredDistances samples a distance for every pair uniformly within
// its bounds.
func trialSquaredDistances(b *Bounds, rng *rand.Rand) *mat.Mat {
	n := b.N
	d2 := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			lo, hi := b.Lower.At(i, j), b.Upper.At(i, j)
			d := lo + rng.Float64()*math.Max(0, hi-lo)
			d2.Set(i, j, d*d)
			d2.Set(j, i, d*d)
		}
	}
	return d2
}

// metricMatrix converts squared distances to the centroid-referenced Gram
// matrix G with Gᵢⱼ = ½(d²ᵢₒ + d²ⱼₒ − d²ᵢⱼ), where o is the centroid.
func metricMatrix(d2 *mat.Mat) (*mat.Mat, error) {
	n := d2.Rows
	// Squared distance of each atom to the centroid.
	total := 0.0
	rowSum := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			rowSum[i] += d2.At(i, j)
		}
		total += rowSum[i]
	}
	fn := float64(n)
	d0 := make([]float64, n)
	for i := 0; i < n; i++ {
		d0[i] = rowSum[i]/fn - total/(2*fn*fn)
		if d0[i] < 0 {
			d0[i] = 0
		}
	}
	g := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			g.Set(i, j, 0.5*(d0[i]+d0[j]-d2.At(i, j)))
		}
	}
	return g, nil
}
