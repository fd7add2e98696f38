// Package filter implements the probabilistic structure-estimation core of
// the paper: the Gaussian state estimate (x, C), the sequential measurement
// update of Figure 1 (an iterated extended Kalman filter update applied to
// batches of constraints), the combination of independently produced updates
// of Figure 3, and the cycle-to-convergence driver.
package filter

import (
	"fmt"

	"phmse/internal/geom"
	"phmse/internal/mat"
	"phmse/internal/pool"
)

// State is the Gaussian estimate of a structure: the mean coordinate vector
// x (three entries per atom) and the full covariance matrix C. The diagonal
// of C measures the uncertainty of each coordinate; off-diagonal entries
// record the linear correlations through which previously applied
// constraints influence later updates.
type State struct {
	X []float64
	C *mat.Mat
}

// NewState builds a state from initial atom positions with an isotropic
// initial variance (Å²) on every coordinate.
func NewState(pos []geom.Vec3, variance float64) *State {
	n := 3 * len(pos)
	s := &State{X: make([]float64, n), C: mat.New(n, n)}
	for i, p := range pos {
		s.X[3*i] = p[0]
		s.X[3*i+1] = p[1]
		s.X[3*i+2] = p[2]
	}
	for d := 0; d < n; d++ {
		s.C.Set(d, d, variance)
	}
	return s
}

// GetPooledState returns a dim-dimensional state backed by pooled
// buffers: X has unspecified contents (the caller must fully overwrite
// it), C is zeroed. Release with ReleasePooledState when the state no
// longer escapes; a state that does escape (into a Solution, say) is
// simply never released.
func GetPooledState(dim int) *State {
	return &State{X: pool.Get(dim), C: pool.GetMat(dim, dim)}
}

// ReleasePooledState returns a pooled state's buffers for reuse and
// clears the state so accidental use-after-release fails loudly. Safe on
// nil.
func ReleasePooledState(s *State) {
	if s == nil {
		return
	}
	pool.Put(s.X)
	pool.PutMat(s.C)
	s.X = nil
	s.C = nil
}

// Block returns coordinates [off, off+dim) of s as a state of their own
// that aliases s: its X is that run of s.X, its C the diagonal block of
// s.C. It is how a hierarchy node updates its part of the root state in
// place; the blocks of s.C beside it belong to its ancestors.
func (s *State) Block(off, dim int) *State {
	return &State{X: s.X[off : off+dim : off+dim], C: s.C.View(off, off, dim, dim)}
}

// Dim returns the state dimension (three times the number of atoms).
func (s *State) Dim() int { return len(s.X) }

// Atoms returns the number of atoms represented.
func (s *State) Atoms() int { return len(s.X) / 3 }

// Pos returns the position of local atom i.
func (s *State) Pos(i int) geom.Vec3 {
	return geom.Vec3{s.X[3*i], s.X[3*i+1], s.X[3*i+2]}
}

// SetPos overwrites the position of local atom i.
func (s *State) SetPos(i int, p geom.Vec3) {
	s.X[3*i], s.X[3*i+1], s.X[3*i+2] = p[0], p[1], p[2]
}

// Positions returns all atom positions as a fresh slice.
func (s *State) Positions() []geom.Vec3 {
	out := make([]geom.Vec3, s.Atoms())
	for i := range out {
		out[i] = s.Pos(i)
	}
	return out
}

// Clone returns a deep copy.
func (s *State) Clone() *State {
	return &State{X: append([]float64(nil), s.X...), C: s.C.Clone()}
}

// ResetCovariance restores an isotropic covariance, as done at the start of
// each constraint-application cycle.
func (s *State) ResetCovariance(variance float64) {
	s.C.Zero()
	for d := 0; d < s.Dim(); d++ {
		s.C.Set(d, d, variance)
	}
}

// Variance returns the summed variance of atom i's three coordinates, a
// scalar measure of positional uncertainty.
func (s *State) Variance(i int) float64 {
	return s.C.At(3*i, 3*i) + s.C.At(3*i+1, 3*i+1) + s.C.At(3*i+2, 3*i+2)
}

// MeanVariance returns the mean per-atom positional variance.
func (s *State) MeanVariance() float64 {
	if s.Atoms() == 0 {
		return 0
	}
	sum := 0.0
	for i := 0; i < s.Atoms(); i++ {
		sum += s.Variance(i)
	}
	return sum / float64(s.Atoms())
}

func (s *State) String() string {
	return fmt.Sprintf("state{%d atoms, mean var %.3g}", s.Atoms(), s.MeanVariance())
}
