// Package conform implements the low-resolution discrete conformational
// space search used to produce initial structure estimates (reference [3]
// of the paper). The ribosome problem runs this preprocessing step before
// the analytical estimator to avoid low-quality locally optimal solutions.
//
// Atoms move on a coarse cubic lattice; a simulated-annealing walk proposes
// single-atom lattice moves and scores them by the weighted violation of
// the constraints touching the moved atom. The output is deliberately crude
// — its job is to land in the right basin, after which the probabilistic
// estimator refines positions and quantifies their uncertainty.
package conform

import (
	"math"
	"math/rand"

	"phmse/internal/constraint"
	"phmse/internal/geom"
)

// Options configures the search; zero values select the defaults.
type Options struct {
	GridSpacing float64 // lattice resolution in Å (default 4)
	Sweeps      int     // proposal sweeps over all atoms (default 300)
	Seed        int64
	InitRadius  float64 // radius of the random starting sphere (default: estimated from the data)
	StartTemp   float64 // initial annealing temperature (default 25)
}

func (o Options) withDefaults(nAtoms int, cons *constraint.Set) Options {
	if o.GridSpacing <= 0 {
		o.GridSpacing = 4
	}
	if o.Sweeps <= 0 {
		o.Sweeps = 300
	}
	if o.InitRadius <= 0 {
		// A sphere sized to the largest observed distance, or to the atom
		// count for purely local data.
		maxD := 0.0
		for r := range cons.Len() {
			row := cons.Row(r)
			if d, ok := row.Distance(); ok && d.Target > maxD {
				maxD = d.Target
			}
			if p, ok := row.Position(); ok {
				if n := p.Target.Norm(); n > maxD {
					maxD = n
				}
			}
		}
		if maxD == 0 {
			maxD = 3 * math.Cbrt(float64(nAtoms))
		}
		o.InitRadius = maxD
	}
	if o.StartTemp <= 0 {
		o.StartTemp = 25
	}
	return o
}

// Search returns a low-resolution initial estimate: lattice positions that
// approximately satisfy the constraint set.
func Search(nAtoms int, cons *constraint.Set, opt Options) []geom.Vec3 {
	opt = opt.withDefaults(nAtoms, cons)
	rng := rand.New(rand.NewSource(opt.Seed))
	s := newSearcher(nAtoms, cons, opt, rng)
	s.anneal()
	return s.positions()
}

// score returns the total weighted squared constraint violation of a
// conformation — the objective the search minimizes. Exported so callers
// can compare candidate initializations.
func score(pos []geom.Vec3, cons *constraint.Set) float64 {
	total := 0.0
	var buf evalBuf
	x := geom.Flat(pos)
	for r := range cons.Len() {
		total += buf.violation(cons, r, x)
	}
	return total
}

type searcher struct {
	opt    Options
	rng    *rand.Rand
	pos    []geom.Vec3 // lattice coordinates × spacing
	cons   *constraint.Set
	byAtom [][]int // constraint indices touching each atom
	buf    evalBuf
}

func newSearcher(nAtoms int, cons *constraint.Set, opt Options, rng *rand.Rand) *searcher {
	s := &searcher{
		opt:    opt,
		rng:    rng,
		pos:    make([]geom.Vec3, nAtoms),
		cons:   cons,
		byAtom: make([][]int, nAtoms),
	}
	for i := range s.pos {
		s.pos[i] = s.snap(geom.Vec3{
			rng.NormFloat64() * opt.InitRadius / 2,
			rng.NormFloat64() * opt.InitRadius / 2,
			rng.NormFloat64() * opt.InitRadius / 2,
		})
	}
	for r := range cons.Len() {
		for _, a := range cons.Atoms(r) {
			if a >= 0 && int(a) < nAtoms {
				s.byAtom[a] = append(s.byAtom[a], r)
			}
		}
	}
	// Atoms with absolute position data start there: a free head start.
	for r := range cons.Len() {
		if p, ok := cons.Row(r).Position(); ok && p.I < nAtoms {
			s.pos[p.I] = s.snap(p.Target)
		}
	}
	return s
}

func (s *searcher) snap(p geom.Vec3) geom.Vec3 {
	g := s.opt.GridSpacing
	return geom.Vec3{
		math.Round(p[0]/g) * g,
		math.Round(p[1]/g) * g,
		math.Round(p[2]/g) * g,
	}
}

// localScore sums the violations of the constraints touching atom a.
func (s *searcher) localScore(a int) float64 {
	total := 0.0
	x := geom.Flat(s.pos)
	for _, r := range s.byAtom[a] {
		total += s.buf.violation(s.cons, r, x)
	}
	return total
}

func (s *searcher) anneal() {
	n := len(s.pos)
	if n == 0 {
		return
	}
	temp := s.opt.StartTemp
	cool := math.Pow(0.01/s.opt.StartTemp, 1/float64(s.opt.Sweeps))
	g := s.opt.GridSpacing
	for sweep := 0; sweep < s.opt.Sweeps; sweep++ {
		for a := 0; a < n; a++ {
			before := s.localScore(a)
			old := s.pos[a]
			// Propose a single-axis lattice step of 1–3 cells.
			axis := s.rng.Intn(3)
			step := float64(s.rng.Intn(3)+1) * g
			if s.rng.Intn(2) == 0 {
				step = -step
			}
			next := old
			next[axis] += step
			s.pos[a] = next
			after := s.localScore(a)
			if after > before && s.rng.Float64() >= math.Exp((before-after)/temp) {
				s.pos[a] = old // reject
			}
		}
		temp *= cool
	}
}

func (s *searcher) positions() []geom.Vec3 {
	return append([]geom.Vec3(nil), s.pos...)
}

// evalBuf evaluates one row at a time into reused scratch.
type evalBuf struct {
	row [1]int32
	lin constraint.Lin
}

// violation returns row r's weighted squared violation at the coordinates
// x (three per atom); an inactive bound has none.
func (b *evalBuf) violation(cons *constraint.Set, r int, x []float64) float64 {
	b.row[0] = int32(r)
	b.lin.Reset()
	cons.Eval(b.row[:], nil, x, &b.lin)
	total := 0.0
	for d, z := range b.lin.Z {
		diff := z - b.lin.H[d]
		if b.lin.Wrap[d] {
			diff = math.Mod(diff+3*math.Pi, 2*math.Pi) - math.Pi
		}
		if s2 := b.lin.R[d]; s2 > 0 {
			total += diff * diff / s2
		} else {
			total += diff * diff
		}
	}
	return total
}
