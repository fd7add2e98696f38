// Package constraint defines the measurement models that relate observed
// data to the unknown atomic coordinates: interatomic distances (the
// prevalent data type in the paper), bond angles, torsion angles, absolute
// position anchors, and one-sided distance bounds (the non-Gaussian
// extension of reference [2] of the paper).
//
// A constraint set is a table, Set: a kind column and the atom indices of
// each row are its topology, and each row's observed values and σ are a
// job's data. Set.Eval linearises rows at the current estimate — the
// observations z, their variances, the predictions h(x) and the sparse
// Jacobian rows ∂h/∂(atom coordinates) — which is the batch form
// (z, R, H) the paper's update consumes.
package constraint

import (
	"fmt"
	"math"
	"slices"

	"phmse/internal/geom"
	"phmse/internal/sparse"
)

// Kind is a constraint's measurement model.
type Kind uint8

// The measurement models.
const (
	KindDistance     Kind = iota // Euclidean distance between two atoms
	KindAngle                    // bond angle I–J–K at J
	KindTorsion                  // dihedral angle of I–J–K–L about J–K
	KindPosition                 // an atom's absolute position
	KindBound                    // one-sided distance bound, active while violated
	KindDisplacement             // the vector from atom I to atom J
	NumKinds
)

var kinds = [NumKinds]struct {
	name       string
	atoms, dim int
}{
	{"distance", 2, 1}, {"angle", 3, 1}, {"torsion", 4, 1}, {"position", 1, 3}, {"bound", 2, 1}, {"displacement", 2, 3},
}

// String returns the kind's wire tag: "distance", "angle", "torsion",
// "position" or "bound".
func (k Kind) String() string { return kinds[k].name }

// Atoms returns the number of atoms a row of the kind couples.
func (k Kind) Atoms() int { return kinds[k].atoms }

// Dim returns the number of scalar observations a row of the kind makes.
func (k Kind) Dim() int { return kinds[k].dim }

// Set is a constraint set as columns, one entry per row. The kind and atom
// columns are the topology; the value and σ columns are the measurements.
// The zero Set is empty and ready to use. A Set is appended to while it is
// built and only read afterwards, so any number of goroutines may
// evaluate one.
type Set struct {
	kind []Kind
	// off[r] is where row r's atoms start in atom, which holds
	// kind[r].Atoms() of them from there.
	off  []int32
	atom []int32
	// val is a row's observed values: the target (a position's or a
	// displacement's x, y, z; a bound's lower and upper limits).
	val   [][3]float64
	sigma []float64
}

// Row is one constraint as a record: what a Set holds of each row.
type Row struct {
	Kind  Kind
	Atoms [4]int     // the first Kind.Atoms() are used
	Val   [3]float64 // the target: x, y, z of a position or displacement; a bound's lower, upper
	Sigma float64    // measurement standard deviation
}

// Distance returns the row as a Distance, and whether it is one.
func (r Row) Distance() (Distance, bool) {
	return Distance{I: r.Atoms[0], J: r.Atoms[1], Target: r.Val[0], Sigma: r.Sigma}, r.Kind == KindDistance
}

// Angle returns the row as an Angle, and whether it is one.
func (r Row) Angle() (Angle, bool) {
	return Angle{I: r.Atoms[0], J: r.Atoms[1], K: r.Atoms[2], Target: r.Val[0], Sigma: r.Sigma}, r.Kind == KindAngle
}

// Torsion returns the row as a Torsion, and whether it is one.
func (r Row) Torsion() (Torsion, bool) {
	return Torsion{I: r.Atoms[0], J: r.Atoms[1], K: r.Atoms[2], L: r.Atoms[3], Target: r.Val[0], Sigma: r.Sigma}, r.Kind == KindTorsion
}

// Position returns the row as a Position, and whether it is one.
func (r Row) Position() (Position, bool) {
	return Position{I: r.Atoms[0], Target: r.Val, Sigma: r.Sigma}, r.Kind == KindPosition
}

// Bound returns the row as a DistanceBound, and whether it is one.
func (r Row) Bound() (DistanceBound, bool) {
	return DistanceBound{I: r.Atoms[0], J: r.Atoms[1], Lower: r.Val[0], Upper: r.Val[1], Sigma: r.Sigma}, r.Kind == KindBound
}

func (r Row) String() string {
	return fmt.Sprintf("%s%v=%.3g±%.2g", r.Kind, r.Atoms[:r.Kind.Atoms()], r.Val[:r.Kind.Dim()], r.Sigma)
}

// Of returns the set of the given rows, in order.
func Of(rows ...Row) Set {
	var s Set
	s.Add(rows...)
	return s
}

// Grow makes room for n more rows of up to two atoms without reallocating.
func (s *Set) Grow(n int) {
	s.kind = slices.Grow(s.kind, n)
	s.off = slices.Grow(s.off, n)
	s.atom = slices.Grow(s.atom, 2*n)
	s.val = slices.Grow(s.val, n)
	s.sigma = slices.Grow(s.sigma, n)
}

// Add appends the rows, in order.
func (s *Set) Add(rows ...Row) {
	for _, r := range rows {
		s.kind = append(s.kind, r.Kind)
		s.off = append(s.off, int32(len(s.atom)))
		for _, a := range r.Atoms[:r.Kind.Atoms()] {
			s.atom = append(s.atom, int32(a))
		}
		s.val = append(s.val, r.Val)
		s.sigma = append(s.sigma, r.Sigma)
	}
}

// Append appends every row of t.
func (s *Set) Append(t *Set) {
	base := int32(len(s.atom))
	s.kind = append(s.kind, t.kind...)
	for _, o := range t.off {
		s.off = append(s.off, base+o)
	}
	s.atom = append(s.atom, t.atom...)
	s.val = append(s.val, t.val...)
	s.sigma = append(s.sigma, t.sigma...)
}

// Len returns the number of rows.
func (s *Set) Len() int { return len(s.kind) }

// AllRows returns the index of every row, in order.
func (s *Set) AllRows() []int32 {
	rows := make([]int32, s.Len())
	for r := range rows {
		rows[r] = int32(r)
	}
	return rows
}

// Kind returns row r's kind.
func (s *Set) Kind(r int) Kind { return s.kind[r] }

// Atoms returns row r's atoms, aliasing the set.
func (s *Set) Atoms(r int) []int32 {
	o := s.off[r]
	return s.atom[o : o+int32(s.kind[r].Atoms())]
}

// Row returns row r as a record.
func (s *Set) Row(r int) Row {
	out := Row{Kind: s.kind[r], Val: s.val[r], Sigma: s.sigma[r]}
	for i, a := range s.Atoms(r) {
		out.Atoms[i] = int(a)
	}
	return out
}

// Rows returns every row as a record, in order.
func (s *Set) Rows() []Row {
	out := make([]Row, s.Len())
	for r := range out {
		out[r] = s.Row(r)
	}
	return out
}

// ScalarDim returns the total number of scalar observations.
func (s *Set) ScalarDim() int {
	d := 0
	for _, k := range s.kind {
		d += k.Dim()
	}
	return d
}

// SameTopology reports whether t has s's kind and atom columns: the same
// rows in the same order, coupling the same atoms.
func (s *Set) SameTopology(t *Set) bool {
	return slices.Equal(s.kind, t.kind) && slices.Equal(s.atom, t.atom)
}

// Lin is a linearisation Eval appends to, one entry per scalar
// observation of the active rows.
type Lin struct {
	Z, R, H []float64 // observation z, noise variance σ², prediction h(x)
	Wrap    []bool    // the innovation z − h is 2π-periodic (torsions)
	// Jac, when not nil, takes each scalar observation's Jacobian row over
	// the slots' coordinates (column 3·slot + axis), exact zeros skipped.
	Jac *sparse.Builder
}

// Reset empties the linearisation, keeping its capacity.
func (l *Lin) Reset() {
	l.Z, l.R, l.H, l.Wrap = l.Z[:0], l.R[:0], l.H[:0], l.Wrap[:0]
	if l.Jac != nil {
		l.Jac.Reset()
	}
}

// obs appends one scalar observation and, when Jac is set, its Jacobian
// row: g[k] is ∂h/∂(atom k), at slot[k].
func (l *Lin) obs(z, s2, h float64, wrap bool, slot []int, g []geom.Vec3) {
	l.Z, l.R, l.H, l.Wrap = append(l.Z, z), append(l.R, s2), append(l.H, h), append(l.Wrap, wrap)
	if l.Jac == nil {
		return
	}
	for k, s := range slot {
		for c, v := range g[k] {
			if v != 0 {
				l.Jac.Add(3*s+c, v)
			}
		}
	}
	l.Jac.EndRow()
}

// BoundActive reports whether a bound with the given limits is violated at
// distance r. A limit that is not positive, or an infinite upper one, is
// absent.
func BoundActive(lower, upper, r float64) bool {
	return lower > 0 && r < lower || upper > 0 && !math.IsInf(upper, 1) && r > upper
}

// boundTarget is the distance a violated bound pulls toward: its only
// limit, or the midpoint of both, so either violation converges into the
// interval. Limits are absent as BoundActive reads them.
func boundTarget(lower, upper float64) float64 {
	switch {
	case !(upper > 0) || math.IsInf(upper, 1):
		return lower
	case !(lower > 0):
		return upper
	}
	return 0.5 * (lower + upper)
}

// Eval linearises the given rows, in order, at the coordinates x (three
// per slot) and appends the result to lin. slot maps the rows' atoms, in
// order, to slots; nil makes each atom its own slot. Inactive bounds are
// skipped.
//
// The gradients are analytic. A distance's is ±(rᵢ−rⱼ)/|rᵢ−rⱼ|. An
// angle's is ∂θ/∂rᵢ = (cosθ·û − v̂)/(|u| sinθ) with u = rᵢ−rⱼ,
// v = r_k−rⱼ. A torsion's, with b₁ = rⱼ−rᵢ, b₂ = r_k−rⱼ, b₃ = r_l−r_k and
// normals n₁ = b₁×b₂, n₂ = b₂×b₃, is
//
//	∂φ/∂rᵢ = |b₂|/|n₁|²·n₁,  ∂φ/∂r_l = −|b₂|/|n₂|²·n₂,
//
// and the inner atoms take the translation-balancing combinations
// ∂φ/∂rⱼ = −(1+p)·∂φ/∂rᵢ + q·∂φ/∂r_l, ∂φ/∂r_k = p·∂φ/∂rᵢ − (1+q)·∂φ/∂r_l
// with p = b₁·b₂/|b₂|², q = b₃·b₂/|b₂|² (signs follow geom.Dihedral's
// atan2 convention). Where the gradient is undefined — coincident atoms,
// a collinear angle, a torsion with a vanishing normal — the row is zero.
func (s *Set) Eval(rows []int32, slot []int32, x []float64, lin *Lin) {
	var (
		sl [4]int
		p  [4]geom.Vec3
		g  [4]geom.Vec3
	)
	e := 0
	for _, r := range rows {
		k := s.kind[r]
		n := k.Atoms()
		for i, a := range s.atom[s.off[r]:][:n] {
			if slot != nil {
				a = slot[e+i]
			}
			sl[i] = int(a)
			p[i] = geom.Vec3{x[3*a], x[3*a+1], x[3*a+2]}
		}
		e += n
		v, s2 := s.val[r], s.sigma[r]*s.sigma[r]
		g = [4]geom.Vec3{}
		switch k {
		case KindDistance, KindBound:
			diff := p[0].Sub(p[1])
			d := diff.Norm()
			z := v[0]
			if k == KindBound {
				if !BoundActive(v[0], v[1], d) {
					continue
				}
				z = boundTarget(v[0], v[1])
			}
			if d != 0 {
				inv := 1 / d
				for c := 0; c < 3; c++ {
					g[0][c] = diff[c] * inv
					g[1][c] = -g[0][c]
				}
			}
			lin.obs(z, s2, d, false, sl[:2], g[:2])
		case KindAngle:
			u := p[0].Sub(p[1])
			w := p[2].Sub(p[1])
			nu, nw := u.Norm(), w.Norm()
			h := 0.0
			if nu != 0 && nw != 0 {
				uh, wh := u.Scale(1/nu), w.Scale(1/nw)
				cos := uh.Dot(wh)
				sin := uh.Cross(wh).Norm()
				h = math.Atan2(sin, cos)
				if !(sin < 1e-12) {
					g[0] = uh.Scale(cos).Sub(wh).Scale(1 / (nu * sin))
					g[2] = wh.Scale(cos).Sub(uh).Scale(1 / (nw * sin))
					g[1] = g[0].Add(g[2]).Scale(-1)
				}
			}
			lin.obs(v[0], s2, h, false, sl[:3], g[:3])
		case KindTorsion:
			b1 := p[1].Sub(p[0])
			b2 := p[2].Sub(p[1])
			b3 := p[3].Sub(p[2])
			n1 := b1.Cross(b2)
			n2 := b2.Cross(b3)
			nb2 := b2.Norm()
			h := geom.Dihedral(p[0], p[1], p[2], p[3])
			if n1sq, n2sq := n1.Norm2(), n2.Norm2(); !(nb2 == 0 || n1sq < 1e-18 || n2sq < 1e-18) {
				g[0] = n1.Scale(nb2 / n1sq)
				g[3] = n2.Scale(-nb2 / n2sq)
				c12 := b1.Dot(b2) / (nb2 * nb2)
				c32 := b3.Dot(b2) / (nb2 * nb2)
				g[1] = g[0].Scale(-(1 + c12)).Add(g[3].Scale(c32))
				g[2] = g[0].Scale(c12).Sub(g[3].Scale(1 + c32))
			}
			lin.obs(v[0], s2, h, true, sl[:4], g[:4])
		case KindPosition:
			for c := 0; c < 3; c++ {
				g[0] = geom.Vec3{}
				g[0][c] = 1
				lin.obs(v[c], s2, p[0][c], false, sl[:1], g[:1])
			}
		case KindDisplacement:
			for c := 0; c < 3; c++ {
				g[0], g[1] = geom.Vec3{}, geom.Vec3{}
				g[0][c], g[1][c] = -1, 1
				lin.obs(v[c], s2, p[1][c]-p[0][c], false, sl[:2], g[:2])
			}
		}
	}
}

// Distance is an observed Euclidean distance between two atoms, the most
// prevalent form of data for molecular structures (NMR NOE distances,
// covalent bond lengths from general chemistry, and so on).
type Distance struct {
	I, J   int     // global atom indices
	Target float64 // observed distance
	Sigma  float64 // measurement standard deviation
}

// Row returns the distance as a set row.
func (d Distance) Row() Row {
	return Row{Kind: KindDistance, Atoms: [4]int{d.I, d.J}, Val: [3]float64{d.Target}, Sigma: d.Sigma}
}

// Angle is an observed bond angle (radians) at vertex J of the path I–J–K.
type Angle struct {
	I, J, K int
	Target  float64 // radians
	Sigma   float64 // radians
}

// Row returns the angle as a set row.
func (a Angle) Row() Row {
	return Row{Kind: KindAngle, Atoms: [4]int{a.I, a.J, a.K}, Val: [3]float64{a.Target}, Sigma: a.Sigma}
}

// Torsion is an observed dihedral angle (radians) of the chain I–J–K–L
// about the J–K axis. Its innovation is wrapped into (−π, π].
type Torsion struct {
	I, J, K, L int
	Target     float64 // radians, in (−π, π]
	Sigma      float64
}

// Row returns the torsion as a set row.
func (t Torsion) Row() Row {
	return Row{Kind: KindTorsion, Atoms: [4]int{t.I, t.J, t.K, t.L}, Val: [3]float64{t.Target}, Sigma: t.Sigma}
}

// Position anchors an atom to an externally known location, such as the
// neutron-diffraction protein positions used as reference points in the 30S
// ribosome problem. It is a three-dimensional linear observation.
type Position struct {
	I      int
	Target geom.Vec3
	Sigma  float64 // isotropic standard deviation per coordinate
}

// Row returns the anchor as a set row.
func (p Position) Row() Row {
	return Row{Kind: KindPosition, Atoms: [4]int{p.I}, Val: p.Target, Sigma: p.Sigma}
}

// DistanceBound is a one-sided distance constraint, the simplest of the
// non-Gaussian observation types handled by the extension in reference [2]
// of the paper (e.g. NOE upper bounds, van der Waals lower bounds). While
// the current estimate satisfies the bound the constraint is inactive; when
// violated it acts as a Gaussian distance observation pulled to the nearest
// bound, or to the midpoint of the two.
type DistanceBound struct {
	I, J  int
	Lower float64 // 0 or less means no lower bound
	Upper float64 // +Inf, 0 or less means no upper bound
	Sigma float64
}

// Row returns the bound as a set row.
func (b DistanceBound) Row() Row {
	return Row{Kind: KindBound, Atoms: [4]int{b.I, b.J}, Val: [3]float64{b.Lower, b.Upper}, Sigma: b.Sigma}
}

// Displacement is an observed vector from atom I to atom J — the relative
// position of two atoms, as a rigid fragment of known geometry gives it.
// It is linear, and couples both atoms' coordinates.
type Displacement struct {
	I, J   int
	Target geom.Vec3 // r_J − r_I
	Sigma  float64   // isotropic standard deviation per coordinate
}

// Row returns the displacement as a set row.
func (d Displacement) Row() Row {
	return Row{Kind: KindDisplacement, Atoms: [4]int{d.I, d.J}, Val: d.Target, Sigma: d.Sigma}
}
