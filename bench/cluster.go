package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"phmse/internal/client"
	"phmse/internal/router"
	"phmse/internal/server"
	"phmse/internal/trace"
)

const (
	adminToken = "bench-token"
	// pollEvery is the client.Wait poll interval wherever jobs take
	// milliseconds: the warm workload, set-ups, the rebalance warm start.
	pollEvery = time.Millisecond
	// coldPollEvery is the poll interval of the cold workload, whose jobs
	// take 50–550 ms and wait up to a second behind each other. Polled
	// every millisecond through the router, the waiting alone kept
	// bench, router and shard handlers busy for most of a CPU, taken from
	// the two solver threads on a two-CPU host in whatever slices the
	// kernel chose: the same solve then ran anywhere between 50 and 200 ms
	// and identical runs gave 4.9 to 7.0 jobs/s. At 10 ms a solve runs
	// within 10 % of its fastest time.
	coldPollEvery = 10 * time.Millisecond
	// basePort anchors the fixed port plan. The router places a shard's
	// ring arcs by hashing its base URL, so fixed ports are what make
	// topology→shard placement — and with it per-shard load and the set of
	// posteriors a rebalance moves — identical in every run. The range
	// sits below Linux's ephemeral ports, so no outgoing connection of a
	// concurrently running test can squat on one. This base spreads the
	// serving workloads' topologies evenly (4 of 8 helix-1bp and 2 of 4
	// helix-2bp per shard) and gives the joining third shard a third of the
	// rebalance workload's posteriors (16 of 48).
	basePort = 24340
)

type shardProc struct {
	*proc
	base     string
	instance string
	cl       *client.Client // straight at the daemon, for readiness probes
}

type routerProc struct {
	*proc
	base  string
	admin *client.Admin
}

// cluster is a set of phmsed shards behind one or two phmse-router
// replicas, all real processes on loopback.
type cluster struct {
	sup     *supervisor
	routers []*routerProc
	shards  []*shardProc
	// ring counts the shards the routers were started with; further shards
	// run but join only through the admin API.
	ring int
}

// startCluster spawns nShards daemons and, once they answer /readyz,
// nRouters routers whose -shards list names the first ring of them, and
// returns once the routers' rings hold `ring` shards.
func startCluster(ctx context.Context, e *env, nRouters, nShards, ring int) (*cluster, error) {
	c := &cluster{sup: e.sup, ring: ring}
	port := basePort + e.portOffset
	routerAddr := func(i int) string { return fmt.Sprintf("127.0.0.1:%d", port+i) }
	shardAddr := func(i int) string { return fmt.Sprintf("127.0.0.1:%d", port+10+i) }

	var ringBases []string
	for i := 0; i < nShards; i++ {
		addr := shardAddr(i)
		if err := checkPortFree(addr); err != nil {
			return c, err
		}
		inst := fmt.Sprintf("s%d", i+1)
		p, err := e.sup.start(inst, filepath.Join(e.binDir, "phmsed"),
			"-addr", addr, "-instance", inst, "-max-procs", "1", "-queue", "64", "-admin-token", adminToken)
		if err != nil {
			return c, err
		}
		base := "http://" + addr
		c.shards = append(c.shards, &shardProc{proc: p, base: base, instance: inst,
			cl: client.New(base, client.WithHTTPClient(newHTTPClient()))})
		if i < ring {
			ringBases = append(ringBases, base)
		}
	}
	// The shards must answer before a router starts: a router whose first
	// probe finds a shard not yet listening waits a whole probe interval
	// for the next, and set-up time would read 0.5 s or 0.7 s by the race.
	ctx, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	for _, s := range c.shards {
		if err := pollUntil(ctx, s.proc, func() bool {
			_, ok, err := s.cl.Ready(ctx)
			return err == nil && ok
		}); err != nil {
			return c, fmt.Errorf("shard %s not ready: %w", s.instance, err)
		}
	}
	for i := 0; i < nRouters; i++ {
		addr := routerAddr(i)
		if err := checkPortFree(addr); err != nil {
			return c, err
		}
		args := []string{"-addr", addr, "-shards", strings.Join(ringBases, ","),
			"-admin-token", adminToken, "-probe-interval", "200ms", "-repair-interval", "-1s",
			"-replica-id", fmt.Sprintf("r%d", i+1)}
		if nRouters > 1 {
			var peers []string
			for j := 0; j < nRouters; j++ {
				if j != i {
					peers = append(peers, "http://"+routerAddr(j))
				}
			}
			args = append(args, "-peers", strings.Join(peers, ","), "-gossip-interval", "200ms")
		}
		p, err := e.sup.start(fmt.Sprintf("router%d", i+1), filepath.Join(e.binDir, "phmse-router"), args...)
		if err != nil {
			return c, err
		}
		base := "http://" + addr
		c.routers = append(c.routers, &routerProc{proc: p, base: base,
			admin: client.NewAdmin(base, adminToken, client.WithHTTPClient(newHTTPClient()))})
	}
	for _, r := range c.routers {
		if err := pollUntil(ctx, r.proc, func() bool {
			list, err := r.admin.Shards(ctx)
			return err == nil && list.RingShards == c.ring
		}); err != nil {
			return c, fmt.Errorf("router %s not ready: %w", r.base, err)
		}
	}
	return c, nil
}

// pollUntil retries cond every 2 ms until it holds, the process dies, or
// ctx ends.
func pollUntil(ctx context.Context, p *proc, cond func() bool) error {
	for !cond() {
		if p.exited() {
			return fmt.Errorf("%s exited during start-up (see its log)", p.name)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
	return nil
}

// newHTTPClient returns a client with a transport of its own, so each
// load goroutine holds exactly one connection.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2, IdleConnTimeout: 30 * time.Second}}
}

// jobClient returns a fresh v1 client (own connection) for the first
// router.
func (c *cluster) jobClient() *client.Client {
	return client.New(c.routers[0].base, client.WithHTTPClient(newHTTPClient()))
}

// shardByInstance maps a JobStatus.Shard back to the daemon.
func (c *cluster) shardByInstance(inst string) *shardProc {
	for _, s := range c.shards {
		if s.instance == inst {
			return s
		}
	}
	return nil
}

// rssPeakMB sums the peak resident sets of every daemon.
func (c *cluster) rssPeakMB() float64 {
	total := 0.0
	for _, r := range c.routers {
		total += rssPeakMB(r.pid())
	}
	for _, s := range c.shards {
		total += rssPeakMB(s.pid())
	}
	return total
}

func getJSON(ctx context.Context, url string, out any) error {
	_, err := rawCall(ctx, http.DefaultClient, http.MethodGet, url, nil, out)
	return err
}

// counters is one reading of every daemon's /metrics document and CPU
// clock, taken at a window boundary; deltas between two readings are the
// counts "recorded at the same boundaries" as the spans.
type counters struct {
	routers   []router.Metrics
	shards    []server.Metrics
	routerCPU float64 // ms, summed over routers
	shardCPU  float64 // ms, summed over shards
}

func (c *cluster) readCounters(ctx context.Context) (counters, error) {
	var out counters
	for _, r := range c.routers {
		var m router.Metrics
		if err := getJSON(ctx, r.base+"/metrics", &m); err != nil {
			return out, fmt.Errorf("router metrics: %w", err)
		}
		out.routers = append(out.routers, m)
		out.routerCPU += cpuMillis(r.pid())
	}
	for _, s := range c.shards {
		var m server.Metrics
		if err := getJSON(ctx, s.base+"/metrics", &m); err != nil {
			return out, fmt.Errorf("shard metrics: %w", err)
		}
		out.shards = append(out.shards, m)
		out.shardCPU += cpuMillis(s.pid())
	}
	return out, nil
}

// deltas is what the daemons' own counters say happened between two
// readings: router 0's forwarding counters, the shards' scheduler, plan
// cache, pool, fault and operation-class counters summed over the shards,
// and the CPU both tiers burned.
type deltas struct {
	forwarded, failed, retried, saturated, breakerRefused float64
	grants, coalesced, shrunk                             float64
	planHits, planMisses                                  float64
	retries, flatFallbacks, rejected                      float64
	poolGets, poolHits                                    float64
	times                                                 trace.Times
	flops                                                 [trace.NumClasses]float64
	routerCPU, shardCPU                                   float64
}

func diffCounters(before, after counters) deltas {
	r0, r1 := before.routers[0], after.routers[0]
	d := deltas{
		forwarded: float64(r1.Forwarded - r0.Forwarded), failed: float64(r1.Failed - r0.Failed),
		retried: float64(r1.Retried - r0.Retried), saturated: float64(r1.Saturated - r0.Saturated),
		breakerRefused: float64(r1.BreakerRefused - r0.BreakerRefused),
		routerCPU:      after.routerCPU - before.routerCPU, shardCPU: after.shardCPU - before.shardCPU,
	}
	for i := range after.shards {
		a, b := after.shards[i], before.shards[i]
		d.grants += float64(a.Scheduler.Grants - b.Scheduler.Grants)
		d.coalesced += float64(a.Scheduler.Coalesced - b.Scheduler.Coalesced)
		d.shrunk += float64(a.Scheduler.Shrunk - b.Scheduler.Shrunk)
		d.planHits += float64(a.PlanCache.Hits - b.PlanCache.Hits)
		d.planMisses += float64(a.PlanCache.Misses - b.PlanCache.Misses)
		d.retries += float64(a.Jobs.Retries - b.Jobs.Retries)
		d.flatFallbacks += float64(a.Jobs.FlatFallbacks - b.Jobs.FlatFallbacks)
		d.rejected += float64(a.Jobs.Rejected - b.Jobs.Rejected)
		d.poolGets += float64(a.WorkspacePool.Gets - b.WorkspacePool.Gets)
		d.poolHits += float64(a.WorkspacePool.Hits - b.WorkspacePool.Hits)
		for c := trace.Class(0); c < trace.NumClasses; c++ {
			d.times[c] += a.OpTimes.Seconds[c.String()] - b.OpTimes.Seconds[c.String()]
			d.flops[c] += a.OpTimes.Flops[c.String()] - b.OpTimes.Flops[c.String()]
		}
	}
	return d
}

// report sets the counter-derived metrics; jobs is the number of units of
// work the window completed.
func (d deltas) report(rep *report, jobs int) {
	rep.set("router.forwarded", d.forwarded, 1)
	rep.set("router.failed", d.failed, 1)
	rep.set("router.retried", d.retried, 1)
	rep.set("router.saturated", d.saturated, 1)
	rep.set("router.breaker_refused", d.breakerRefused, 1)
	rep.set("router.cpu_ms_per_job", ratio(d.routerCPU, float64(jobs)), jobs)
	rep.set("server.cpu_ms_per_job", ratio(d.shardCPU, float64(jobs)), jobs)
	rep.set("sched.grants", d.grants, 1)
	rep.set("sched.coalesced", d.coalesced, 1)
	rep.set("sched.shrunk", d.shrunk, 1)
	rep.set("server.plan_cache_hit_rate", ratio(d.planHits, d.planHits+d.planMisses), int(d.planHits+d.planMisses))
	rep.set("server.retries", d.retries, 1)
	rep.set("server.flat_fallbacks", d.flatFallbacks, 1)
	rep.set("server.rejected", d.rejected, 1)
	rep.set("pool.hit_rate", ratio(d.poolHits, d.poolGets), int(d.poolGets))
	setClassMetrics(rep, d.times, d.flops)
}

// traceCounters is the counter block written next to the spans.
func (d deltas) traceCounters() map[string]float64 {
	return map[string]float64{
		"router.forwarded": d.forwarded, "router.cpu_ms": d.routerCPU, "shards.cpu_ms": d.shardCPU,
		"sched.grants": d.grants, "sched.coalesced": d.coalesced,
		"plan_cache.hits": d.planHits, "plan_cache.misses": d.planMisses,
		"pool.gets": d.poolGets, "pool.hits": d.poolHits, "op_times.total_seconds": d.times.Total(),
	}
}
