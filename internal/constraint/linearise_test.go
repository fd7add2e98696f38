package constraint

import (
	"phmse/internal/geom"
	"phmse/internal/sparse"
)

// flat returns the coordinates of pos, three per atom.
func flat(pos []geom.Vec3) []float64 {
	x := make([]float64, 0, 3*len(pos))
	for _, p := range pos {
		x = append(x, p[:]...)
	}
	return x
}

// evalRow evaluates r, whose atoms index pos, with Set.Eval: it returns
// the linearisation (empty for an inactive bound) and its Jacobian rows
// densely over 3·len(pos) columns.
func evalRow(r Row, pos []geom.Vec3) (Lin, [][]float64) {
	s := Of(r)
	lin := Lin{Jac: sparse.NewBuilder(3 * len(pos))}
	s.Eval([]int32{0}, nil, flat(pos), &lin)
	jac := make([][]float64, len(lin.Z))
	m := lin.Jac.Build()
	for d := range jac {
		jac[d] = make([]float64, 3*len(pos))
		cols, vals := m.Row(d)
		for k, c := range cols {
			jac[d][c] = vals[k]
		}
	}
	return lin, jac
}

// linearise evaluates one pinRow at pos (one position per atom) through
// Set.Eval.
func linearise(r pinRow, pos []geom.Vec3) pinLin {
	row := Row{Val: r.vals, Sigma: r.sigma}
	for k := Kind(0); k < NumKinds; k++ {
		if k.String() == r.kind {
			row.Kind = k
		}
	}
	for i := 0; i < r.atoms; i++ {
		row.Atoms[i] = i
	}
	lin, jac := evalRow(row, pos)
	if len(lin.Z) == 0 {
		return pinLin{}
	}
	out := pinLin{active: true, h: lin.H, z: lin.Z, r: lin.R, wrap: lin.Wrap, jac: make([][]pinEntry, len(jac))}
	for d, row := range jac {
		for col, v := range row {
			if v != 0 {
				out.jac[d] = append(out.jac[d], pinEntry{col, v})
			}
		}
	}
	return out
}
