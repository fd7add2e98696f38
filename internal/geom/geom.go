// Package geom provides the small 3-D vector and transform toolkit used by
// the molecule generators and measurement models.
package geom

import (
	"math"
	"unsafe"
)

// Vec3 is a point or direction in 3-space.
type Vec3 [3]float64

// Flat returns the coordinates of pos, three per point, sharing pos's
// memory.
func Flat(pos []Vec3) []float64 {
	if len(pos) == 0 {
		return nil
	}
	return unsafe.Slice(&pos[0][0], 3*len(pos))
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v[0] + w[0], v[1] + w[1], v[2] + w[2]} }

// Sub returns v − w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v[0] - w[0], v[1] - w[1], v[2] - w[2]} }

// Scale returns s·v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v[0], s * v[1], s * v[2]} }

// Dot returns the inner product of v and w.
func (v Vec3) Dot(w Vec3) float64 { return v[0]*w[0] + v[1]*w[1] + v[2]*w[2] }

// Cross returns the cross product v × w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v[1]*w[2] - v[2]*w[1],
		v[2]*w[0] - v[0]*w[2],
		v[0]*w[1] - v[1]*w[0],
	}
}

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Norm2 returns the squared Euclidean length of v.
func (v Vec3) Norm2() float64 { return v.Dot(v) }

// Unit returns v normalized to unit length; the zero vector is returned
// unchanged.
func (v Vec3) Unit() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Dist returns the Euclidean distance between v and w.
func Dist(v, w Vec3) float64 { return v.Sub(w).Norm() }

// Angle returns the angle (radians, in [0, π]) at vertex b of the path
// a–b–c.
func Angle(a, b, c Vec3) float64 {
	u, w := a.Sub(b), c.Sub(b)
	cross := u.Cross(w).Norm()
	return math.Atan2(cross, u.Dot(w))
}

// Dihedral returns the torsion angle (radians, in (−π, π]) of the atom
// chain a–b–c–d about the b–c axis.
func Dihedral(a, b, c, d Vec3) float64 {
	b1 := b.Sub(a)
	b2 := c.Sub(b)
	b3 := d.Sub(c)
	n1 := b1.Cross(b2)
	n2 := b2.Cross(b3)
	m := n1.Cross(b2.Unit())
	return math.Atan2(m.Dot(n2), n1.Dot(n2))
}

// Mat3 is a 3×3 matrix in row-major order, used for rotations.
type Mat3 [9]float64

// Identity3 returns the 3×3 identity.
func Identity3() Mat3 { return Mat3{1, 0, 0, 0, 1, 0, 0, 0, 1} }

// MulVec applies the matrix to a vector.
func (m Mat3) MulVec(v Vec3) Vec3 {
	return Vec3{
		m[0]*v[0] + m[1]*v[1] + m[2]*v[2],
		m[3]*v[0] + m[4]*v[1] + m[5]*v[2],
		m[6]*v[0] + m[7]*v[1] + m[8]*v[2],
	}
}

// Mul composes two rotations (m then applied after n: result = m·n).
func (m Mat3) Mul(n Mat3) Mat3 {
	var r Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			s := 0.0
			for k := 0; k < 3; k++ {
				s += m[3*i+k] * n[3*k+j]
			}
			r[3*i+j] = s
		}
	}
	return r
}
