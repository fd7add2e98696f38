package molecule

import (
	"phmse/internal/constraint"
	"phmse/internal/geom"
)

// WithExclusions returns a copy of the problem augmented with van der
// Waals style excluded-volume constraints — the simplest of the
// non-Gaussian observation types of the paper's reference [2]. Every
// stride-th atom pair that carries no distance observation receives a
// one-sided lower bound d ≥ minDist, active only when the estimate
// violates it.
func WithExclusions(p *Problem, minDist, sigma float64, stride int) *Problem {
	if stride < 1 {
		stride = 1
	}
	// Pairs already constrained by distance data are skipped.
	type pair [2]int
	seen := map[pair]bool{}
	for r := 0; r < p.Constraints.Len(); r++ {
		if k := p.Constraints.Kind(r); k == constraint.KindDistance || k == constraint.KindBound {
			a := p.Constraints.Atoms(r)
			i, j := int(a[0]), int(a[1])
			seen[pair{min(i, j), max(i, j)}] = true
		}
	}
	var cons constraint.Set
	cons.Append(&p.Constraints)
	count := 0
	for i := range p.Atoms {
		for j := i + 1; j < len(p.Atoms); j++ {
			if seen[pair{i, j}] {
				continue
			}
			if count%stride == 0 {
				cons.Add(constraint.DistanceBound{I: i, J: j, Lower: minDist, Sigma: sigma}.Row())
			}
			count++
		}
	}
	return &Problem{Name: p.Name + "+vdw", Atoms: p.Atoms, Constraints: cons, Tree: p.Tree}
}

// Clashes counts atom pairs closer than minDist in the given conformation —
// the violation measure excluded-volume constraints exist to drive down.
func Clashes(pos []geom.Vec3, minDist float64) int {
	n := 0
	for i := range pos {
		for j := i + 1; j < len(pos); j++ {
			if geom.Dist(pos[i], pos[j]) < minDist {
				n++
			}
		}
	}
	return n
}
