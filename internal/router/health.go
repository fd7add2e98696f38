package router

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"sync"
	"time"

	"phmse/internal/encode"
)

// Shard health is one machine per shard: a health record under shard.mu,
// changed only by Router.observe, at Router.now.
//
// Probes: /healthz decides liveness (and teaches the router the shard's
// instance id, the key of the job-routing table) and /readyz decides ring
// membership, under a capped exponential backoff for unreachable shards
// and flap suppression for shards readmitted too often (probe, below).
//
// Circuit breaker: live forward failures (transport errors and 5xx) that
// the probes cannot see — a wedged handler, an asymmetric network fault, a
// proxy in front of a dead daemon — open the breaker after
// breakerFailures in a row, and the shard leaves the ring. After
// breakerCooldown the next probe or directed request half-opens it: the
// shard re-enters the ring and admits exactly one trial request at a time,
// whose success closes the breaker and whose failure reopens it.
//
// No transition reports its own visibility change: observe compares the
// shard's ring membership before and after the event and republishes the
// view, and logs the change, exactly when it differs (a quarantine is
// logged too).

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

func (s BreakerState) String() string { return [...]string{"closed", "open", "half_open"}[s] }

// health is one shard's health record, guarded by shard.mu and written
// only by Router.observe.
type health struct {
	alive bool // /healthz answered 200 (or the daemon's own 503 draining) at last contact
	ready bool // /readyz answered 200 and no probation is owed
	// consecFails is the failed-probe streak behind nextProbe's backoff.
	consecFails int
	nextProbe   time.Time
	// queueDepth and running mirror the shard's last /readyz document.
	queueDepth, running int
	// Flap suppression: readmits holds the readmission times inside the
	// flap window, quarantines the escalation level, probationLeft the
	// consecutive good probes still owed (0 = none).
	readmits      []time.Time
	quarantines   int
	probationLeft int
	// The circuit breaker: its position, the consecutive live-forward
	// failures while closed, when it last opened, whether a half-open trial
	// is in flight, and its lifetime transition counters.
	breaker                  BreakerState
	fails                    int
	openedAt                 time.Time
	trial                    bool
	opens, halfOpens, closes int64
}

// event is one input to a shard's health machine.
type event struct {
	kind eventKind
	// evProbe: the verdict and the readiness document's load gauges.
	alive, ready        bool
	queueDepth, running int
	// evForward: the shard answered below 500, and whether the forward held
	// the half-open trial slot.
	ok, trial bool
}

type eventKind int

const (
	evProbe   eventKind = iota // a probe verdict; ticks the breaker's cooldown
	evAdmit                    // a live forward asks the breaker; ticks the cooldown
	evForward                  // a live forward's outcome
	evCancel                   // the half-open trial produced no outcome
	evEject                    // a live forward's transport failure
)

// observe applies one event to the shard's health record at rt.now() and
// republishes the view exactly when the shard's ring membership changed.
// For evAdmit it reports whether the forward may be sent and whether it
// holds the half-open trial slot, which the caller settles with exactly
// one evForward or evCancel.
func (rt *Router) observe(sh *shard, ev event) (admit, trial bool) {
	now := rt.now()
	sh.mu.Lock()
	before, was := sh.stateLocked(), sh.quarantines
	admit, trial, why := sh.apply(ev, now, rt.cfg.ProbeInterval)
	after, quarantined := sh.stateLocked(), sh.quarantines > was
	sh.mu.Unlock()
	moved := before.inRing() != after.inRing()
	if moved || quarantined {
		log.Printf("phmse-router: shard %s %s → %s (%s)", sh.name, before, after, why)
	}
	if moved {
		rt.rebuild(nil)
	}
	return admit, trial
}

// apply is the transition table. why names the step that decided the
// event, for the log line of a ring-membership change.
func (h *health) apply(ev event, now time.Time, probeEvery time.Duration) (admit, trial bool, why string) {
	// The cooldown clock ticks on probes (so a shard the ring excluded
	// still gets its trial) and on admissions: the one open → half-open
	// transition.
	ticks := ev.kind == evProbe || ev.kind == evAdmit
	if ticks && h.breaker == BreakerOpen && now.Sub(h.openedAt) >= breakerCooldown {
		h.breaker = BreakerHalfOpen
		h.halfOpens++
		why = "breaker cooldown elapsed"
	}
	switch ev.kind {
	case evProbe:
		why = cmp.Or(why, h.probe(ev, now, probeEvery))
	case evAdmit:
		switch {
		case h.breaker == BreakerClosed:
			return true, false, why
		case h.breaker == BreakerOpen || h.trial:
			return false, false, why
		}
		h.trial = true
		return true, true, why
	case evForward:
		if ev.trial {
			h.trial = false
		}
		switch {
		case ev.ok:
			// A half-open trial succeeded — or a forward raced an open
			// transition and proved the shard healthy either way.
			h.fails = 0
			if h.breaker != BreakerClosed {
				h.breaker = BreakerClosed
				h.closes++
			}
			why = "forward succeeded"
		case h.breaker == BreakerHalfOpen:
			h.open(now)
			why = "half-open trial failed"
		case h.breaker == BreakerClosed:
			h.fails++
			if h.fails >= breakerFailures {
				h.open(now)
			}
			why = fmt.Sprintf("%d consecutive forward failures", h.fails)
		}
		// Already open: pre-transition stragglers add no information.
	case evCancel:
		h.trial = false
	case evEject:
		h.alive, h.ready = false, false
		h.consecFails++
		why = "forward transport failure"
	}
	return false, false, why
}

// probe applies one probe verdict. A dead shard (healthz unreachable, or
// answering anything but 200 or a daemon's own 503 "draining") backs its
// probes off exponentially up to maxProbeBackoff (or the probe interval,
// when that is longer). An alive shard that is not ready (draining or
// saturated) leaves the ring but keeps the normal cadence — saturation
// clears quickly, so readmission must too — and stays askable: a daemon
// draining itself is still finishing jobs and answering reads of them.
// One good probe readmits a stable shard; one readmitted flapCount times
// within flapWindow is quarantined and owes an escalating probation of
// consecutive good probes, restarted by any bad one.
func (h *health) probe(ev event, now time.Time, probeEvery time.Duration) (why string) {
	h.alive = ev.alive
	// A saturated daemon's 503 still carries its occupancy; a dead shard
	// reads as zero.
	h.queueDepth, h.running = ev.queueDepth, ev.running
	if !ev.alive || !ev.ready {
		h.ready = false
		if h.probationLeft != 0 { // readmission requires continuous health
			h.probationLeft = probation(h.quarantines)
		}
	}
	if !ev.alive {
		h.consecFails++
		limit := max(maxProbeBackoff, probeEvery)
		backoff := probeEvery
		for i := 1; i < h.consecFails && backoff < limit; i++ {
			backoff *= 2
		}
		h.nextProbe = now.Add(min(backoff, limit))
		return "probe: down"
	}
	h.consecFails = 0
	h.nextProbe = now.Add(probeEvery)
	if !ev.ready {
		return "probe: not ready"
	}
	if h.ready {
		return "probe: ready"
	}
	// Readmission of an out shard. The stable path readmits at once; a
	// flapping one is quarantined under a probation of consecutive good
	// probes that doubles on every repeat offence.
	keep := h.readmits[:0]
	for _, ts := range h.readmits {
		if now.Sub(ts) < flapWindow {
			keep = append(keep, ts)
		}
	}
	h.readmits = keep
	switch {
	case h.probationLeft > 1:
		h.probationLeft--
		return "probe: ready, on probation"
	case h.probationLeft == 0 && len(h.readmits) >= flapCount:
		h.quarantines++
		h.probationLeft = probation(h.quarantines)
		return "probe: ready, quarantined for flapping"
	}
	h.probationLeft = 0
	h.ready = true
	h.readmits = append(h.readmits, now)
	return "probe: ready"
}

func (h *health) open(now time.Time) {
	h.breaker = BreakerOpen
	h.openedAt = now
	h.opens++
}

// probation is the consecutive good probes owed after the given number
// of quarantines: 2, 4, 8, … capped at 32.
func probation(quarantines int) int {
	return 2 << min(max(quarantines, 1)-1, 4)
}

// probeLoop drives the periodic sweep until Close.
func (rt *Router) probeLoop() {
	defer close(rt.done)
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.sweep(context.Background(), false)
		}
	}
}

// CheckNow synchronously probes every shard once, ignoring backoff
// schedules — startup and tests use it to settle the ring without waiting
// out a probe interval.
func (rt *Router) CheckNow(ctx context.Context) {
	rt.sweep(ctx, true)
}

// sweep probes the shards that are due (all of them when force is set),
// concurrently so one black-holed backend cannot stall the others.
func (rt *Router) sweep(ctx context.Context, force bool) {
	now := rt.now()
	var wg sync.WaitGroup
	for _, sh := range rt.shardList() {
		sh.mu.Lock()
		due := force || !now.Before(sh.nextProbe)
		sh.mu.Unlock()
		if !due {
			continue
		}
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			rt.probeShard(ctx, sh)
		}(sh)
	}
	wg.Wait()
}

// probeShard polls one backend and feeds the verdict to its machine.
func (rt *Router) probeShard(ctx context.Context, sh *shard) {
	pctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	var hs, rs encode.HealthStatus
	code, decoded := rt.probeGet(pctx, sh, "/healthz", &hs)
	alive := code == http.StatusOK ||
		code == http.StatusServiceUnavailable && decoded && hs.Status == "draining"
	ready := false
	if alive {
		code, _ = rt.probeGet(pctx, sh, "/readyz", &rs)
		ready = code == http.StatusOK
	}
	if hs.InstanceID != "" {
		rt.learnInstance(hs.InstanceID, sh)
	}
	rt.observe(sh, event{kind: evProbe, alive: alive, ready: ready, queueDepth: rs.QueueDepth, running: rs.Running})
}

// probeGet fetches one health endpoint and returns the status it answered
// with (0 when nothing did) and whether the body decoded into out — a
// draining or saturated 503 still carries the daemon's own word for its
// state and the occupancy a quiesce wait needs; a proxy's error page in
// front of a dead daemon carries neither.
func (rt *Router) probeGet(ctx context.Context, sh *shard, path string, out *encode.HealthStatus) (status int, decoded bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, sh.base+path, nil)
	if err != nil {
		return 0, false
	}
	resp, err := rt.hc.Do(req)
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out) == nil
}
