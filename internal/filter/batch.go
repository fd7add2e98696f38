package filter

import (
	"fmt"

	"phmse/internal/constraint"
	"phmse/internal/sparse"
)

// Batch is a group of constraints applied together in one pass of the
// update procedure (one iteration of the Figure 1 loop). The paper's
// analysis and Table 2 show that moderate batch sizes (around 16 scalar
// constraints) minimize the per-constraint cost by enabling tiled matrix
// computation while keeping the O(m³) Cholesky and O(m²n) solve terms small.
type Batch struct {
	// set is the constraint set the rows index, read through the pointer
	// MakeBatches was given: a set stored there (hier.Node.Rebind) is the
	// batch's from its next assemble on.
	set   *constraint.Set
	rows  []int32 // the batch's rows of set, in order
	slots []int32 // the local state slot of each of the rows' atoms, in order
	dim   int     // total scalar dimension if all constraints are active

	// Reusable assembly scratch, for a state of stateDim. A Batch is
	// therefore not safe for concurrent use; the solvers apply each node's
	// batches sequentially.
	lin      constraint.Lin
	stateDim int
}

// Dim returns the maximum scalar dimension of the batch (gated constraints
// may be inactive at a particular linearization point).
func (b *Batch) Dim() int { return b.dim }

// Len returns the number of constraints in the batch.
func (b *Batch) Len() int { return len(b.rows) }

// NNZUpper returns an upper bound on the number of Jacobian non-zeros of
// the batch (three per referenced atom per scalar row), used by the
// virtual-time machine to cost the dense-sparse products.
func (b *Batch) NNZUpper() int {
	s := 0
	for _, r := range b.rows {
		k := b.set.Kind(int(r))
		s += k.Dim() * 3 * k.Atoms()
	}
	return s
}

// DefaultBatchSize is the scalar batch dimension found optimal in the
// paper's Table 2 experiment.
const DefaultBatchSize = 16

// MakeBatches groups the given rows of set into batches of at most
// batchSize scalar observations (at least one constraint per batch),
// translating global atom indices to local state slots via localOf.
// localOf must return a valid slot for every atom the rows reference. The
// batches read the set through the pointer, and each aliases its run of
// rows.
func MakeBatches(set *constraint.Set, rows []int32, localOf func(atom int) int, batchSize int) ([]*Batch, error) {
	if batchSize < 1 {
		batchSize = DefaultBatchSize
	}
	// Every row's slots, one run after another in one allocation.
	slots := make([]int32, 0, 2*len(rows))
	for _, r := range rows {
		for _, a := range set.Atoms(int(r)) {
			s := localOf(int(a))
			if s < 0 {
				return nil, fmt.Errorf("filter: constraint %d (%v) references atom %d outside the node", r, set.Row(int(r)), a)
			}
			slots = append(slots, int32(s))
		}
	}
	var batches []*Batch
	for lo, at := 0, 0; lo < len(rows); {
		b := &Batch{set: set}
		hi, n := lo, 0
		for ; hi < len(rows); hi++ {
			k := set.Kind(int(rows[hi]))
			if b.dim > 0 && b.dim+k.Dim() > batchSize {
				break
			}
			b.dim += k.Dim()
			n += k.Atoms()
		}
		b.rows = rows[lo:hi:hi]
		b.slots = slots[at : at+n : at+n]
		batches = append(batches, b)
		lo, at = hi, at+n
	}
	return batches, nil
}

// assemble linearizes the batch at the estimate s: lin.Jac holds H over
// the local state, not yet built. Bounds that are not violated
// are skipped, so the system can be smaller than Dim() — or empty, in
// which case assemble returns nil. The linearisation is the batch's
// scratch, reused by the next call.
func (b *Batch) assemble(s *State) *constraint.Lin {
	lin := &b.lin
	if lin.Jac == nil || b.stateDim != s.Dim() {
		lin.Jac = sparse.NewBuilder(s.Dim())
		b.stateDim = s.Dim()
	}
	lin.Reset()
	b.set.Eval(b.rows, b.slots, s.X, lin)
	if len(lin.Z) == 0 {
		return nil
	}
	return lin
}
