// Package trace provides per-operation-class time accounting. The paper's
// evaluation (Tables 3–6) breaks execution time into six array-operation
// classes; both the real executor and the virtual-time machine record into
// the same Collector so that the reproduced tables use identical accounting.
package trace

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Class identifies one of the array-operation classes measured in the paper.
type Class int

// The operation classes, in the column order of Tables 3–6.
const (
	DenseSparse Class = iota // d-s: dense-sparse matrix multiplications
	Chol                     // chol: Cholesky factorization
	Solve                    // sys: triangular system solves
	MatMat                   // m-m: dense matrix multiplications
	MatVec                   // m-v: dense matrix-vector multiplications
	VecOp                    // vec: vector operations
	NumClasses
)

var classNames = [NumClasses]string{"d-s", "chol", "sys", "m-m", "m-v", "vec"}

// String returns the paper's abbreviation for the class.
func (c Class) String() string {
	if c < 0 || c >= NumClasses {
		return fmt.Sprintf("class(%d)", int(c))
	}
	return classNames[c]
}

// Times holds one duration (in seconds) per operation class.
type Times [NumClasses]float64

// Total returns the sum over all classes.
func (t Times) Total() float64 {
	s := 0.0
	for _, v := range t {
		s += v
	}
	return s
}

// Add returns the element-wise sum of t and u.
func (t Times) Add(u Times) Times {
	for c := range t {
		t[c] += u[c]
	}
	return t
}

// Scale returns t with every entry multiplied by f.
func (t Times) Scale(f float64) Times {
	for c := range t {
		t[c] *= f
	}
	return t
}

// Format renders the times in the paper's column order.
func (t Times) Format() string {
	var b strings.Builder
	for c := Class(0); c < NumClasses; c++ {
		fmt.Fprintf(&b, "%s=%.2f ", c, t[c])
	}
	return strings.TrimSpace(b.String())
}

// Collector accumulates per-class time, safely across goroutines. The zero
// value is ready to use. A nil *Collector is valid and discards everything,
// so instrumentation can stay in place with zero configuration.
type Collector struct {
	mu    sync.Mutex
	times Times
	flops [NumClasses]float64
}

// Add accumulates seconds (and optionally a flop count) under the class.
func (c *Collector) Add(class Class, seconds, flops float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.times[class] += seconds
	c.flops[class] += flops
	c.mu.Unlock()
}

// Timed runs f and accounts its duration under the class: a Tally of one
// step, flushed at once.
func (c *Collector) Timed(class Class, flops float64, f func()) {
	if c == nil {
		f()
		return
	}
	var t Tally
	t.Timed(class, flops, f)
	t.FlushTo(c)
}

// epoch is the origin of now.
var epoch = time.Now()

// now reads the monotonic clock alone: time.Since of a Time that carries a
// monotonic reading takes one clock read, where time.Now takes the wall
// clock and the monotonic clock both.
func now() time.Duration { return time.Since(epoch) }

// Tally accumulates per-class time and flops on one goroutine, without a
// lock, for a Collector to take in one go (FlushTo): a batch update times
// nine steps or so, and a lock and a wall-clock read for each would cost
// more than some of the steps. The zero value is ready to use; a Tally is
// not safe for concurrent use.
type Tally struct {
	times Times
	flops [NumClasses]float64
}

// Timed runs f and accounts its duration under the class.
func (t *Tally) Timed(class Class, flops float64, f func()) {
	start := now()
	f()
	t.times[class] += (now() - start).Seconds()
	t.flops[class] += flops
}

// FlushTo adds the tally to c, under one lock, and clears it. A nil c
// discards it.
func (t *Tally) FlushTo(c *Collector) {
	if c != nil {
		c.mu.Lock()
		c.times = c.times.Add(t.times)
		for cl, f := range t.flops {
			c.flops[cl] += f
		}
		c.mu.Unlock()
	}
	*t = Tally{}
}

// Times returns a snapshot of the accumulated per-class seconds.
func (c *Collector) Times() Times {
	if c == nil {
		return Times{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.times
}

// Flops returns a snapshot of the accumulated per-class flop counts.
func (c *Collector) Flops() [NumClasses]float64 {
	if c == nil {
		return [NumClasses]float64{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flops
}

// Snapshot is an export-friendly view of a Collector, keyed by the paper's
// operation-class abbreviations. It marshals cleanly to JSON, for the
// serving layer's /metrics endpoint and other monitoring exports.
type Snapshot struct {
	// Seconds maps class abbreviation → accumulated wall-clock seconds.
	Seconds map[string]float64 `json:"seconds"`
	// Flops maps class abbreviation → accumulated floating-point operations.
	Flops map[string]float64 `json:"flops"`
	// TotalSeconds is the sum of Seconds over all classes.
	TotalSeconds float64 `json:"total_seconds"`
}

// Snapshot returns a consistent export view of the accumulated state. A nil
// Collector yields a zero-valued (but non-nil-mapped) snapshot.
func (c *Collector) Snapshot() Snapshot {
	s := Snapshot{
		Seconds: make(map[string]float64, NumClasses),
		Flops:   make(map[string]float64, NumClasses),
	}
	times := c.Times()
	flops := c.Flops()
	for cl := Class(0); cl < NumClasses; cl++ {
		s.Seconds[cl.String()] = times[cl]
		s.Flops[cl.String()] = flops[cl]
	}
	s.TotalSeconds = times.Total()
	return s
}

// Reset clears all accumulated state.
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.times = Times{}
	c.flops = [NumClasses]float64{}
	c.mu.Unlock()
}
