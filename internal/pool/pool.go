// Package pool provides process-wide, size-classed reuse of the float64
// scratch buffers that dominate the solver's allocation profile: the m×m
// innovation and gain workspaces of the measurement update and the per-node
// state vectors and covariance matrices of the hierarchical solve. It is
// the service-layer continuation of the paper's §5 observation that careful
// memory management of the per-node temporaries pays off — at scale the win
// comes from reusing structured workspaces across solves, not
// re-materializing them per request.
//
// Buffers are grouped into power-of-two size classes, each backed by a
// sync.Pool so idle memory is reclaimed under GC pressure. Get returns a
// buffer with unspecified contents (the hot paths fully overwrite their
// destinations); GetZeroed and getMat zero-fill for callers that rely on
// zero initialization. Returning a buffer with Put is optional — a buffer
// that escapes into a long-lived result is simply never returned.
//
// All functions are safe for concurrent use. SetEnabled(false) turns every
// Get into a plain allocation and every Put into a no-op: the switch the
// pooled-vs-unpooled bitwise suites of filter and hier flip, and nothing
// else does.
package pool

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"phmse/internal/mat"
)

// numClasses covers buffer lengths up to 2^40 floats — far beyond any
// state dimension the solver can hold in memory.
const numClasses = 41

var classes [numClasses]sync.Pool

// disabled flips the pool into pass-through mode (plain allocation).
var disabled atomic.Bool

// Counters of pool effectiveness, served by /metrics.
var (
	gets atomic.Int64 // Get/GetZeroed/getMat calls
	hits atomic.Int64 // gets satisfied by a reused buffer
	puts atomic.Int64 // buffers returned for reuse
)

// Stats is a snapshot of the pool counters.
type Stats struct {
	Gets int64 `json:"gets"`
	Hits int64 `json:"hits"`
	Puts int64 `json:"puts"`
}

// Snapshot returns the current pool counters.
func Snapshot() Stats {
	return Stats{Gets: gets.Load(), Hits: hits.Load(), Puts: puts.Load()}
}

// SetEnabled turns pooling on or off process-wide. Disabling does not
// invalidate buffers already handed out; it only makes further Gets
// allocate fresh and further Puts drop their argument.
func SetEnabled(on bool) { disabled.Store(!on) }

// Enabled reports whether pooling is active.
func Enabled() bool { return !disabled.Load() }

// classFor returns the smallest class whose buffers hold n floats.
func classFor(n int) int { return bits.Len(uint(n - 1)) }

// Get returns a float64 slice of length n with unspecified contents —
// possibly dirty data from a previous user. Callers must fully overwrite
// it (or use GetZeroed).
func Get(n int) []float64 {
	if n <= 0 {
		return nil
	}
	gets.Add(1)
	if disabled.Load() {
		return make([]float64, n)
	}
	c := classFor(n)
	if v := classes[c].Get(); v != nil {
		hits.Add(1)
		return (*v.(*[]float64))[:n]
	}
	return make([]float64, 1<<c)[:n]
}

// GetZeroed returns a zero-filled float64 slice of length n.
func GetZeroed(n int) []float64 {
	b := Get(n)
	for i := range b {
		b[i] = 0
	}
	return b
}

// Put returns a buffer for reuse. The caller must not touch b afterwards.
// Buffers of zero capacity are dropped.
func Put(b []float64) {
	if disabled.Load() || cap(b) == 0 {
		return
	}
	puts.Add(1)
	// File under the largest class the capacity fully covers, so a later
	// Get from that class is guaranteed to fit.
	c := bits.Len(uint(cap(b))) - 1
	b = b[:cap(b)]
	classes[c].Put(&b)
}

// getMat returns a zeroed r×c matrix with compact stride backed by a
// pooled buffer.
func getMat(r, c int) *mat.Mat {
	return &mat.Mat{Rows: r, Cols: c, Stride: c, Data: GetZeroed(r * c)}
}

// PutMat returns a matrix's backing buffer for reuse and clears the
// matrix so accidental reuse fails loudly. Only matrices with compact
// stride (as returned by getMat or mat.New) own their whole
// buffer; views into larger allocations must not be returned.
func PutMat(m *mat.Mat) {
	if m == nil || m.Stride != m.Cols {
		return
	}
	Put(m.Data)
	m.Data = nil
	m.Rows, m.Cols, m.Stride = 0, 0, 0
}
