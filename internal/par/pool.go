package par

import (
	"context"
	"fmt"
	"sync"
)

// ProcPool is a shared budget of logical processors from which team widths
// are leased. It is the runtime counterpart of the paper's static
// processor-assignment lesson lifted to the serving layer: the pool bounds
// *processors in use*, not *jobs in flight*, so many small solves can run
// concurrently on small teams while a large solve still gets a wide one.
//
// Acquire is elastic: a caller asks for a desired team width and a minimum,
// and is granted whatever free share of the pool fits between the two —
// shrinking the grant under load instead of convoying behind full
// availability. Waiters are served FIFO so a wide request cannot starve.
type ProcPool struct {
	mu       sync.Mutex
	capacity int
	inUse    int
	leases   int
	waiters  []*procWaiter
}

// procWaiter is one blocked Acquire: its minimum grant and a wake signal.
type procWaiter struct {
	min   int
	ready chan struct{}
}

// NewProcPool returns a pool of capacity logical processors.
func NewProcPool(capacity int) *ProcPool {
	if capacity < 1 {
		panic(fmt.Sprintf("par: processor pool capacity %d < 1", capacity))
	}
	return &ProcPool{capacity: capacity}
}

// Capacity returns the pool's total processor budget.
func (p *ProcPool) Capacity() int {
	return p.capacity
}

// InUse returns the number of processors currently leased.
func (p *ProcPool) InUse() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inUse
}

// Leases returns the number of outstanding leases.
func (p *ProcPool) Leases() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.leases
}

// Waiting returns the number of blocked Acquire calls.
func (p *ProcPool) Waiting() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.waiters)
}

// Lease is a granted share of the pool: Size processors, for the holder to
// build its team from, until Release returns them.
type Lease struct {
	pool *ProcPool
	size int
	once sync.Once
}

// Size returns the number of processors leased.
func (l *Lease) Size() int { return l.size }

// Release returns the lease's processors to the pool. Safe to call more
// than once; only the first call has effect.
func (l *Lease) Release() {
	l.once.Do(func() { l.pool.release(l) })
}

// Acquire leases between minProcs and want processors, blocking
// until at least minProcs are free (FIFO among waiters) or ctx ends. The
// grant is elastic: min(want, free) processors, never below minProcs.
// want and minProcs are clamped to [1, Capacity].
func (p *ProcPool) Acquire(ctx context.Context, want, minProcs int) (*Lease, error) {
	want, minProcs = p.clamp(want, minProcs)
	p.mu.Lock()
	if len(p.waiters) == 0 && p.capacity-p.inUse >= minProcs {
		l := p.grantLocked(want)
		p.mu.Unlock()
		return l, nil
	}
	w := &procWaiter{min: minProcs, ready: make(chan struct{}, 1)}
	p.waiters = append(p.waiters, w)
	p.mu.Unlock()

	for {
		select {
		case <-ctx.Done():
			p.abandon(w)
			return nil, ctx.Err()
		case <-w.ready:
			p.mu.Lock()
			if len(p.waiters) > 0 && p.waiters[0] == w && p.capacity-p.inUse >= w.min {
				p.waiters = p.waiters[1:]
				l := p.grantLocked(want)
				p.wakeLocked()
				p.mu.Unlock()
				return l, nil
			}
			// Spurious or raced wake-up: fall back to waiting. Re-signal
			// the head in case the race left a wake-up unconsumed.
			p.wakeLocked()
			p.mu.Unlock()
		}
	}
}

func (p *ProcPool) clamp(want, minProcs int) (int, int) {
	if minProcs < 1 {
		minProcs = 1
	}
	if minProcs > p.capacity {
		minProcs = p.capacity
	}
	if want < minProcs {
		want = minProcs
	}
	if want > p.capacity {
		want = p.capacity
	}
	return want, minProcs
}

// grantLocked carves min(want, free) processors into a lease. Caller holds
// p.mu and has verified free >= the waiter's minimum.
func (p *ProcPool) grantLocked(want int) *Lease {
	k := p.capacity - p.inUse
	if k > want {
		k = want
	}
	p.inUse += k
	p.leases++
	return &Lease{pool: p, size: k}
}

// release returns a lease's processors to the budget.
func (p *ProcPool) release(l *Lease) {
	p.mu.Lock()
	p.inUse -= l.size
	p.leases--
	p.wakeLocked()
	p.mu.Unlock()
}

// abandon removes a waiter whose context ended, re-signalling the new head
// in case this waiter swallowed the wake-up meant for it.
func (p *ProcPool) abandon(w *procWaiter) {
	p.mu.Lock()
	for i, q := range p.waiters {
		if q == w {
			p.waiters = append(p.waiters[:i], p.waiters[i+1:]...)
			break
		}
	}
	p.wakeLocked()
	p.mu.Unlock()
}

// wakeLocked signals the head waiter when its minimum currently fits.
// Caller holds p.mu.
func (p *ProcPool) wakeLocked() {
	if len(p.waiters) == 0 {
		return
	}
	if w := p.waiters[0]; p.capacity-p.inUse >= w.min {
		select {
		case w.ready <- struct{}{}:
		default:
		}
	}
}
