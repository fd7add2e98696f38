package router

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"phmse/internal/encode"
)

// Shard health tracking. Each backend is polled on two probes: /healthz
// decides liveness (and teaches the router the shard's instance id, the
// key of the job-routing table) and /readyz decides ring membership — a
// draining or saturated daemon leaves the ring so new submissions stop
// landing on it, while its job records stay reachable through the
// broadcast path as long as it is alive. Unreachable shards are probed on
// a capped exponential backoff; a single successful probe readmits.

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
	now := time.Now()
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

// probeShard polls one backend and applies the health transition. A dead
// shard (healthz unreachable, or answering anything but 200 or a daemon's
// own 503 "draining") is ejected at once, and its probes back off
// exponentially up to maxProbeBackoff (or the probe interval, when that is
// longer). An alive shard that is not ready (draining or saturated) leaves
// the ring but keeps the normal probe cadence — saturation clears quickly,
// so readmission must too — and stays askable: a daemon draining itself is
// still finishing jobs and answering reads of them.
//
// Readmission is flap-suppressed: a shard that bounced back into the ring
// FlapCount times within FlapWindow is quarantined and must stay healthy
// through an escalating probation of consecutive good probes before the
// ring takes it back; any bad probe while on probation resets the
// requirement. A stable shard keeps the single-good-probe readmission.
//
// The probe also ticks the shard's circuit breaker: an open breaker whose
// cooldown elapsed half-opens here so the ring re-admits the shard for
// its trial request even when no directed traffic reaches it.
func (rt *Router) probeShard(ctx context.Context, sh *shard) {
	pctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
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

	now := time.Now()
	sh.mu.Lock()
	wasReady := sh.ready
	wasQuarantines := sh.quarantines
	sh.alive = alive
	// Record the readiness document's load signal even when it carried a
	// 503 (a saturated daemon still reports its occupancy); a dead shard
	// reads as zero.
	sh.queueDepth = rs.QueueDepth
	sh.running = rs.Running
	switch {
	case alive && ready:
		sh.consecFails = 0
		sh.nextProbe = now.Add(rt.cfg.ProbeInterval)
		if wasReady {
			break
		}
		rt.admitProbed(sh, now)
	case alive: // draining or saturated: out of the ring, normal cadence
		sh.ready = false
		sh.consecFails = 0
		sh.nextProbe = now.Add(rt.cfg.ProbeInterval)
		rt.resetProbation(sh)
	default:
		sh.consecFails++
		sh.ready = false
		rt.resetProbation(sh)
		limit := max(maxProbeBackoff, rt.cfg.ProbeInterval)
		backoff := rt.cfg.ProbeInterval
		for i := 1; i < sh.consecFails && backoff < limit; i++ {
			backoff *= 2
		}
		sh.nextProbe = now.Add(min(backoff, limit))
	}
	changed := sh.ready != wasReady
	quarantines := sh.quarantines
	sh.mu.Unlock()
	if quarantines != wasQuarantines {
		// A fresh quarantine is membership state peers must see: the
		// shard's probation should be served cluster-wide, not re-learned
		// by every replica separately.
		rt.publishQuarantine(sh.name, quarantines)
	}
	if sh.brk.tick(now, rt.cfg.BreakerCooldown) {
		changed = true
	}
	if changed {
		rt.rebuild(nil)
	}
}

// admitProbed applies one successful probe of a currently-out shard,
// under sh.mu. The stable path readmits immediately; a flapping shard is
// quarantined under an escalating probation of consecutive good probes
// (2 << (quarantines-1), capped at 32).
func (rt *Router) admitProbed(sh *shard, now time.Time) {
	// Slide the flap window.
	if rt.cfg.FlapCount > 0 {
		keep := sh.readmits[:0]
		for _, ts := range sh.readmits {
			if now.Sub(ts) < rt.cfg.FlapWindow {
				keep = append(keep, ts)
			}
		}
		sh.readmits = keep
	}
	switch {
	case sh.probationLeft > 1:
		sh.probationLeft-- // serving probation: stay out of the ring
	case sh.probationLeft == 1:
		sh.probationLeft = 0 // probation served
		sh.ready = true
		sh.readmits = append(sh.readmits, now)
	case rt.cfg.FlapCount > 0 && len(sh.readmits) >= rt.cfg.FlapCount:
		// Flapping: quarantine instead of readmitting, with the probation
		// doubling on every repeat offence.
		sh.quarantines++
		sh.probationLeft = probation(sh.quarantines)
	default:
		sh.ready = true
		sh.readmits = append(sh.readmits, now)
	}
}

// resetProbation restarts a quarantined shard's probation after a bad
// probe: readmission requires continuous health, not cumulative.
func (rt *Router) resetProbation(sh *shard) {
	if sh.probationLeft != 0 {
		sh.probationLeft = probation(sh.quarantines)
	}
}

// probation is the consecutive good probes owed after the given number
// of quarantines: 2, 4, 8, … capped at 32.
func probation(quarantines int) int {
	return 2 << min(max(quarantines, 1)-1, 4)
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

// eject drops a shard from the ring after a forwarding transport failure,
// without waiting for the next probe; the probe loop readmits it once it
// answers again.
func (rt *Router) eject(sh *shard) {
	sh.mu.Lock()
	changed := sh.ready || sh.alive
	sh.ready = false
	sh.alive = false
	sh.consecFails++
	sh.mu.Unlock()
	if changed {
		rt.rebuild(nil)
	}
}
