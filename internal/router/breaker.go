package router

// Per-shard circuit breaking and flap suppression: the self-healing
// layer's answer to two failure shapes the probe loop alone handles
// badly.
//
// The circuit breaker is driven by live forward outcomes, not probes: a
// shard whose /healthz answers but whose v1 traffic fails (a wedged
// handler, an asymmetric network fault, an interposed proxy injecting
// errors) accrues consecutive forward failures until the breaker opens
// and the shard leaves the ring. After a cooldown the breaker half-opens:
// the shard re-enters the ring but admits exactly one trial request at a
// time — a success closes the breaker, a failure reopens it for another
// cooldown. Requests refused by an open (or trial-occupied half-open)
// breaker fail over to the next ring replica exactly like a saturated
// shard. The router consults the breaker in exactly two places: the one
// forward attempt (allow/record/cancel) and the shard-state function
// (isOpen).
//
// Flap suppression — the escalating probation of a shard readmitted too
// often — lives in the probe path (health.go, probeShard).

import (
	"sync"
	"time"
)

// BreakerState is one circuit-breaker position, exposed in /metrics.
type BreakerState int32

const (
	// BreakerClosed passes traffic and counts consecutive failures.
	BreakerClosed BreakerState = iota
	// BreakerOpen refuses traffic until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen admits one trial request at a time; its outcome
	// decides between closed and open.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half_open"
	default:
		return "closed"
	}
}

// breaker is one shard's circuit breaker. The zero value is a closed
// breaker. All transitions happen under mu; the counters are plain ints
// read under the same lock by the metrics snapshot.
type breaker struct {
	mu       sync.Mutex
	state    BreakerState
	fails    int       // consecutive live-forward failures while closed
	openedAt time.Time // when the breaker last opened
	trial    bool      // a half-open trial request is in flight

	opens, halfOpens, closes int64 // lifetime transition counters
}

// allow reports whether a live forward may proceed. An open breaker whose
// cooldown has elapsed half-opens here (directed forwards reach shards
// the ring excludes, so the transition cannot rely on ring traffic
// alone). trial is true when the caller holds the half-open trial slot
// and must settle it with exactly one record or cancel.
func (b *breaker) allow(now time.Time, cooldown time.Duration) (ok, trial bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true, false
	case BreakerOpen:
		if now.Sub(b.openedAt) < cooldown {
			return false, false
		}
		b.state = BreakerHalfOpen
		b.halfOpens++
		b.trial = true
		return true, true
	default: // half-open
		if b.trial {
			return false, false
		}
		b.trial = true
		return true, true
	}
}

// tick drives the time-based open → half-open transition from the probe
// loop, so a shard the ring excluded (no directed traffic) still gets its
// trial once the cooldown elapses. Reports whether ring visibility
// changed (the half-open shard re-enters the ring to receive the trial).
func (b *breaker) tick(now time.Time, cooldown time.Duration) (changed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && now.Sub(b.openedAt) >= cooldown {
		b.state = BreakerHalfOpen
		b.halfOpens++
		return true
	}
	return false
}

// record applies one live forward outcome. wasTrial marks the settling of
// a half-open trial slot. threshold is the consecutive-failure count that
// opens a closed breaker. Reports whether the shard's ring visibility
// changed (a transition into or out of BreakerOpen), in which case the
// caller must rebuild the ring.
func (b *breaker) record(success, wasTrial bool, threshold int, now time.Time) (changed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if wasTrial {
		b.trial = false
	}
	if success {
		b.fails = 0
		if b.state != BreakerClosed {
			// A half-open trial succeeded — or a directed forward raced an
			// open transition and proved the shard healthy either way.
			changed = b.state == BreakerOpen
			b.state = BreakerClosed
			b.closes++
		}
		return changed
	}
	switch b.state {
	case BreakerHalfOpen:
		b.state = BreakerOpen
		b.openedAt = now
		b.opens++
		return true
	case BreakerClosed:
		b.fails++
		if threshold > 0 && b.fails >= threshold {
			b.state = BreakerOpen
			b.openedAt = now
			b.opens++
			return true
		}
	}
	// Already open: pre-transition stragglers add no information.
	return false
}

// cancel releases a trial slot whose request never produced an outcome
// (refused by the in-flight limiter, or the caller's context died before
// the send).
func (b *breaker) cancel(wasTrial bool) {
	if !wasTrial {
		return
	}
	b.mu.Lock()
	b.trial = false
	b.mu.Unlock()
}

// snapshot reads the breaker for the metrics document.
func (b *breaker) snapshot() (state BreakerState, opens, halfOpens, closes int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.opens, b.halfOpens, b.closes
}

// isOpen reports whether the breaker currently fences the shard out of
// the ring. Half-open shards stay in the ring — the trial needs traffic.
func (b *breaker) isOpen() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == BreakerOpen
}
