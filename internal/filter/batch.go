package filter

import (
	"fmt"

	"phmse/internal/constraint"
	"phmse/internal/geom"
	"phmse/internal/sparse"
)

// Batch is a group of constraints applied together in one pass of the
// update procedure (one iteration of the Figure 1 loop). The paper's
// analysis and Table 2 show that moderate batch sizes (around 16 scalar
// constraints) minimize the per-constraint cost by enabling tiled matrix
// computation while keeping the O(m³) Cholesky and O(m²n) solve terms small.
type Batch struct {
	cons  []constraint.Constraint
	slots [][]int // local atom slot of each constraint atom
	dim   int     // total scalar dimension if all constraints are active

	// Reusable assembly scratch. A Batch is therefore not safe for
	// concurrent use; the solvers apply each node's batches sequentially.
	// The assembled views returned by assemble alias this scratch and are
	// valid only until the next assemble call.
	scratch struct {
		builder  *sparse.Builder
		stateDim int
		z, r, h  []float64
		wrap     []bool
		pos      []geom.Vec3
		hBuf     []float64
		jacBuf   [][]float64
		cols     []int
		vals     []float64
	}
}

// Dim returns the maximum scalar dimension of the batch (gated constraints
// may be inactive at a particular linearization point).
func (b *Batch) Dim() int { return b.dim }

// Len returns the number of constraints in the batch.
func (b *Batch) Len() int { return len(b.cons) }

// NNZUpper returns an upper bound on the number of Jacobian non-zeros of
// the batch (three per referenced atom per scalar row), used by the
// virtual-time machine to cost the dense-sparse products.
func (b *Batch) NNZUpper() int {
	s := 0
	for i, c := range b.cons {
		s += c.Dim() * 3 * len(b.slots[i])
	}
	return s
}

// DefaultBatchSize is the scalar batch dimension found optimal in the
// paper's Table 2 experiment.
const DefaultBatchSize = 16

// MakeBatches groups constraints into batches of at most batchSize scalar
// observations (at least one constraint per batch), translating global atom
// indices to local state slots via localOf. localOf must return a valid
// slot for every atom referenced by the constraints.
func MakeBatches(cons []constraint.Constraint, localOf func(atom int) int, batchSize int) ([]*Batch, error) {
	if batchSize < 1 {
		batchSize = DefaultBatchSize
	}
	// Every constraint's slots, one run after another in one allocation;
	// constraint i's run ends at ends[i].
	slots := make([]int, 0, 2*len(cons))
	ends := make([]int, len(cons))
	for i, c := range cons {
		for _, a := range c.Atoms() {
			s := localOf(a)
			if s < 0 {
				return nil, fmt.Errorf("filter: constraint %v references atom %d outside the node", c, a)
			}
			slots = append(slots, s)
		}
		ends[i] = len(slots)
	}
	var batches []*Batch
	for lo := 0; lo < len(cons); {
		b := &Batch{}
		hi := lo
		for ; hi < len(cons) && (b.dim == 0 || b.dim+cons[hi].Dim() <= batchSize); hi++ {
			b.dim += cons[hi].Dim()
		}
		b.cons = append([]constraint.Constraint(nil), cons[lo:hi]...)
		b.slots = make([][]int, hi-lo)
		for i := lo; i < hi; i++ {
			start := 0
			if i > 0 {
				start = ends[i-1]
			}
			b.slots[i-lo] = slots[start:ends[i]:ends[i]]
		}
		batches = append(batches, b)
		lo = hi
	}
	return batches, nil
}

// appendZeros extends a slice by n zeroed entries.
func appendZeros(s []float64, n int) []float64 {
	for i := 0; i < n; i++ {
		s = append(s, 0)
	}
	return s
}

// assembled is the linearized form of a batch at a particular estimate.
type assembled struct {
	z     []float64      // observations
	r     []float64      // noise variances (diagonal R)
	h     []float64      // predicted measurements h(x)
	wrap  []bool         // rows whose innovation is 2π-periodic
	jac   *sparse.Matrix // Jacobian H over the local state
	nAtom int            // atoms touched (for accounting)
}

// assemble linearizes the batch at the estimate s. Gated constraints that
// report inactive are skipped, so the returned system can be smaller than
// Dim() — or empty, in which case assemble returns nil. Scratch buffers are
// reused across calls.
func (b *Batch) assemble(s *State) *assembled {
	n := s.Dim()
	sc := &b.scratch
	if sc.builder == nil || sc.stateDim != n {
		sc.builder = sparse.NewBuilder(n)
		sc.stateDim = n
	} else {
		sc.builder.Reset()
	}
	builder := sc.builder
	z, r, h, wrap := sc.z[:0], sc.r[:0], sc.h[:0], sc.wrap[:0]
	touched := 0

	// Scratch reused across constraints in the batch.
	pos := sc.pos
	hBuf := sc.hBuf
	jacBuf := sc.jacBuf

	for ci, c := range b.cons {
		slots := b.slots[ci]
		na := len(slots)
		dim := c.Dim()
		if cap(pos) < na {
			pos = make([]geom.Vec3, na)
		}
		pos = pos[:na]
		for k, slot := range slots {
			pos[k] = s.Pos(slot)
		}
		if g, ok := c.(constraint.Gated); ok && !g.Active(pos) {
			continue
		}
		if cap(hBuf) < dim {
			hBuf = make([]float64, dim)
		}
		hBuf = hBuf[:dim]
		for len(jacBuf) < dim {
			jacBuf = append(jacBuf, nil)
		}
		for d := 0; d < dim; d++ {
			if cap(jacBuf[d]) < 3*na {
				jacBuf[d] = make([]float64, 3*na)
			}
			jacBuf[d] = jacBuf[d][:3*na]
		}
		c.Eval(pos, hBuf, jacBuf[:dim])

		z = appendZeros(z, dim)
		r = appendZeros(r, dim)
		c.Observed(z[len(z)-dim:], r[len(r)-dim:])
		h = append(h, hBuf...)
		if p, ok := c.(constraint.Periodic); ok {
			wrap = append(wrap, p.PeriodicRows()...)
		} else {
			for d := 0; d < dim; d++ {
				wrap = append(wrap, false)
			}
		}
		touched += na

		// Scatter the dense per-constraint Jacobian into sparse rows over
		// the local state vector.
		for d := 0; d < dim; d++ {
			cols, vals := sc.cols[:0], sc.vals[:0]
			for k, slot := range slots {
				for cc := 0; cc < 3; cc++ {
					v := jacBuf[d][3*k+cc]
					if v != 0 {
						cols = append(cols, 3*slot+cc)
						vals = append(vals, v)
					}
				}
			}
			builder.AddRow(cols, vals)
			sc.cols, sc.vals = cols, vals
		}
	}
	sc.z, sc.r, sc.h, sc.wrap = z, r, h, wrap
	sc.pos, sc.hBuf, sc.jacBuf = pos, hBuf, jacBuf
	if len(z) == 0 {
		return nil
	}
	return &assembled{z: z, r: r, h: h, wrap: wrap, jac: builder.Build(), nAtom: touched}
}
