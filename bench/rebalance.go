package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"time"

	"phmse/internal/client"
	"phmse/internal/encode"
	"phmse/internal/molecule"
)

// The control-plane workload: two gossiping routers over three shards, two
// of them in the ring, and a store of retained posteriors. One admin caller
// repeats: add the third shard (the router migrates the posteriors whose
// arcs it takes over), run a repair sweep (steady state: nothing to do),
// warm-start from a posterior that just moved (the job id still names the
// old holder, so the router must relocate it), drain-remove the shard again
// (everything migrates back).
const (
	rebalanceTiny  = 40 // helix-1bp topologies, anchors 4..43
	rebalanceSmall = 8  // helix-2bp topologies, anchors 4..11
	ringVNodes     = 64 // phmse-router's -vnodes default
	transferReps   = 20
)

// rebalanceSeedParams start the set-up's cold solves close to the
// reference: they exist to leave a posterior behind, not to be timed.
func rebalanceSeedParams(k int) encode.SolveParams {
	return encode.SolveParams{Perturb: 0.1, Seed: int64(17 + k%3)}
}

// rebalanceProblems returns the topologies whose posteriors the cluster
// holds: 40 helix-1bp and 8 helix-2bp anchor variants (12 in all for a
// smoke run).
func rebalanceProblems(smoke bool) []*molecule.Problem {
	nTiny, nSmall := rebalanceTiny, rebalanceSmall
	if smoke {
		nTiny, nSmall = 10, 2
	}
	return append(helixTopologies(1, nTiny), helixTopologies(2, nSmall)...)
}

type rebalanceState struct {
	cl       *cluster
	problems []*molecule.Problem
	ids      []string       // retained job id of problems[k]
	byID     map[string]int // id → k
	joiner   *shardProc     // the shard that is added and removed
	admin    *client.Admin  // router A
	peer     *client.Admin  // router B, which only gossips
}

func setupRebalance(ctx context.Context, e *env) (*rebalanceState, error) {
	cl, err := startCluster(ctx, e, 2, 3, 2)
	if err != nil {
		return nil, err
	}
	s := &rebalanceState{cl: cl, joiner: cl.shards[2], admin: cl.routers[0].admin, peer: cl.routers[1].admin,
		problems: rebalanceProblems(e.smoke), byID: map[string]int{}}
	if s.ids, err = seedPosteriors(ctx, cl, s.problems, rebalanceSeedParams); err != nil {
		return nil, err
	}
	for k, id := range s.ids {
		s.byID[id] = k
	}
	return s, nil
}

// pass is one measured rebalance cycle.
type pass struct {
	addMs, repairMs, warmMs, removeMs float64
	gossipMs                          []float64
	migrated                          int
	bytes                             int64
	waitedMs                          float64
	warm                              *jobRecord
}

func (p *pass) cycleMs() float64 { return p.addMs + p.repairMs + p.warmMs + p.removeMs }

// runPass performs one add→repair→warm-start→drain-remove cycle and
// verifies the cluster after each membership change. Verification and (in
// a traced run) the gossip-convergence wait sit between the four timed
// spans and are not part of the cycle time.
func (s *rebalanceState) runPass(ctx context.Context, tr *tracer, rng *rand.Rand, o *report) (*pass, error) {
	p := &pass{}
	span := func(name string, f func() error) (float64, error) {
		t0 := time.Now()
		err := f()
		t1 := time.Now()
		tr.add(0, name, "", t0, t1)
		return ms(t1.Sub(t0).Seconds()), err
	}

	var add encode.AddShardResponse
	var err error
	p.addMs, err = span("router.add_shard", func() (err error) {
		add, err = s.admin.AddShard(ctx, s.joiner.base)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("add shard: %w", err)
	}
	o.check(add.Migration.Failed == 0 && add.Shard.InRing, "add shard: %d transfers failed, in_ring=%v", add.Migration.Failed, add.Shard.InRing)
	p.migrated, p.bytes = add.Migration.Migrated, add.Migration.Bytes
	if tr != nil {
		p.gossipMs = append(p.gossipMs, s.gossipConverge(ctx, tr))
	}
	held, err := s.verify(ctx, o, 3)
	if err != nil {
		return nil, err
	}

	var sweep encode.RepairReport
	p.repairMs, err = span("router.repair", func() (err error) {
		sweep, err = s.admin.Repair(ctx)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("repair: %w", err)
	}
	o.check(sweep.Scanned == len(s.ids) && sweep.Repaired == 0 && sweep.Failed == 0,
		"steady-state repair: scanned %d repaired %d failed %d, want %d/0/0", sweep.Scanned, sweep.Repaired, sweep.Failed, len(s.ids))

	// Warm-start from a posterior that now lives on the joiner, under the
	// job id that still names its old shard.
	onJoiner := held[s.joiner.instance]
	if len(onJoiner) == 0 {
		return nil, fmt.Errorf("no posterior moved to %s: the ring gives it nothing to own", s.joiner.instance)
	}
	id := onJoiner[rng.Intn(len(onJoiner))]
	jc := s.cl.jobClient()
	p.warmMs, _ = span("router.relocate_warm", func() error {
		p.warm = submitJob(ctx, jc, s.problems[s.byID[id]], encode.SolveParams{}, id)
		msg := finishJob(ctx, jc, p.warm, pollEvery)
		o.check(msg == "", "relocated warm start: %s", msg)
		return nil
	})
	p.warm.trace(tr)
	o.check(p.warm.status.Shard == s.joiner.instance, "warm start from moved posterior %s ran on %q, want the new owner %s", id, p.warm.status.Shard, s.joiner.instance)

	var rm encode.DrainReport
	p.removeMs, err = span("router.drain_remove", func() (err error) {
		rm, err = s.admin.RemoveShard(ctx, s.joiner.instance, client.RemoveShardOptions{})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("drain-remove: %w", err)
	}
	o.check(rm.Removed && !rm.TimedOut && rm.Migration.Failed == 0 && rm.Migration.Migrated == p.migrated,
		"drain-remove: removed=%v timed_out=%v failed=%d migrated=%d (add moved %d)", rm.Removed, rm.TimedOut, rm.Migration.Failed, rm.Migration.Migrated, p.migrated)
	p.bytes += rm.Migration.Bytes
	p.migrated += rm.Migration.Migrated
	p.waitedMs = float64(rm.WaitedMillis)
	if tr != nil {
		p.gossipMs = append(p.gossipMs, s.gossipConverge(ctx, tr))
	}
	_, err = s.verify(ctx, o, 2)
	return p, err
}

// gossipConverge polls router B until its membership epoch matches router
// A's and returns the milliseconds that took.
func (s *rebalanceState) gossipConverge(ctx context.Context, tr *tracer) float64 {
	t0 := time.Now()
	want, err := s.admin.ClusterState(ctx)
	for err == nil {
		var got encode.ClusterView
		if got, err = s.peer.ClusterState(ctx); err == nil && got.Doc.Epoch >= want.Doc.Epoch {
			break
		}
		if time.Since(t0) > 5*time.Second {
			break
		}
		time.Sleep(time.Millisecond)
	}
	t1 := time.Now()
	tr.add(0, "cluster.gossip_converge", "", t0, t1)
	return ms(t1.Sub(t0).Seconds())
}

// ringOwner computes, independently of the router, which of the bases owns
// a routing key: the router's documented placement (vnode label
// "<base>#<v>", first point clockwise of the key).
func ringOwner(bases []string, key string) string {
	type point struct {
		hash  uint64
		owner string
	}
	var pts []point
	for _, b := range bases {
		for v := 0; v < ringVNodes; v++ {
			pts = append(pts, point{encode.KeyHash(fmt.Sprintf("%s#%d", b, v)), b})
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].hash < pts[j].hash })
	h := encode.KeyHash(key)
	i := sort.Search(len(pts), func(i int) bool { return pts[i].hash >= h })
	if i == len(pts) {
		i = 0
	}
	return pts[i].owner
}

// verify reads all three posterior indexes and checks that every seeded
// posterior is held exactly once, by the shard that owns its topology on a
// ring of the first `ring` shards. It returns the holdings by instance.
func (s *rebalanceState) verify(ctx context.Context, o *report, ring int) (map[string][]string, error) {
	bases := make([]string, ring)
	for i := range bases {
		bases[i] = s.cl.shards[i].base
	}
	held := map[string][]string{}
	holders := map[string]int{}
	misplaced := 0
	for _, sh := range s.cl.shards {
		var idx encode.PosteriorIndex
		if err := getJSON(ctx, sh.base+"/v1/posteriors", &idx); err != nil {
			return nil, fmt.Errorf("posterior index of %s: %w", sh.instance, err)
		}
		for _, info := range idx.Posteriors {
			held[sh.instance] = append(held[sh.instance], info.Job)
			holders[info.Job]++
			if ringOwner(bases, info.TopologyHash) != sh.base {
				misplaced++
			}
		}
	}
	lost, duplicated := 0, 0
	for _, id := range s.ids {
		switch holders[id] {
		case 0:
			lost++
		case 1:
		default:
			duplicated++
		}
	}
	o.check(lost == 0 && duplicated == 0 && misplaced == 0 && len(holders) == len(s.ids),
		"ring of %d: %d posteriors lost, %d duplicated, %d off their ring owner, %d ids indexed (want %d)",
		ring, lost, duplicated, misplaced, len(holders), len(s.ids))
	return held, nil
}

func runRebalance(ctx context.Context, e *env) (*report, error) {
	rep := newReport()
	// 48 cold solves take seconds; two set-ups keep the run inside its
	// budget.
	s, setupSecs, err := repeatSetup(e, e.setups(2), func() (*rebalanceState, error) { return setupRebalance(ctx, e) })
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", median(setupSecs), len(setupSecs))

	if rep.InputDigest, err = inputDigest(e.workload, e.seed, e.smoke); err != nil {
		return nil, err
	}
	rng := clientRNG(e.seed, 0) // picks which moved posterior each pass warm-starts from

	window := time.Duration(e.seconds * float64(time.Second))
	passes := func(d time.Duration, tr *tracer, min int) ([]*pass, error) {
		var out []*pass
		until := time.Now().Add(d)
		for (time.Now().Before(until) || len(out) < min) && ctx.Err() == nil {
			p, err := s.runPass(ctx, tr, rng, rep)
			if err != nil {
				return nil, err
			}
			out = append(out, p)
		}
		return out, ctx.Err()
	}

	// One discarded pass opens connections and fills the plan caches.
	if _, err := passes(0, nil, 1); err != nil {
		return nil, err
	}
	refP50 := 0.0
	if e.traced {
		ref, err := passes(window/4, nil, 2)
		if err != nil {
			return nil, err
		}
		refP50 = median(cycleTimes(ref))
	}
	before, err := s.cl.readCounters(ctx)
	if err != nil {
		return nil, err
	}
	measured, err := passes(window, e.tr, 2)
	if err != nil {
		return nil, err
	}
	after, err := s.cl.readCounters(ctx)
	if err != nil {
		return nil, err
	}

	cycles := cycleTimes(measured)
	// Every pass is a slice of its own: the run reports the fastest decile
	// of the pass times (fastDecile), as a time and as a rate.
	n := len(cycles)
	job := fastDecile(cycles, lower)
	rep.set("jobs_per_s", ratio(1e3, job), n)
	rep.set("job_p50_ms", job, n)
	rep.set("job_tail_ms", job, n) // ≈30 passes support no percentile above
	rep.set("bench.rss_peak_mb", s.cl.rssPeakMB(), 1)
	if !e.traced {
		return rep, nil
	}

	rep.set("bench.trace_overhead_share", ratio(median(cycles)-refP50, refP50), n)
	s.layerMetrics(rep, e, measured, before, after)
	return rep, s.transferMetrics(ctx, e, rep)
}

func cycleTimes(ps []*pass) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.cycleMs()
	}
	return out
}

// layerMetrics derives the control-plane numbers of the measured passes.
func (s *rebalanceState) layerMetrics(rep *report, e *env, ps []*pass, before, after counters) {
	var add, repair, warm, remove, gossip, migrated, run, queueWait, cycles []float64
	var bytes, moveMs, moved float64
	for _, p := range ps {
		add, repair, warm, remove = append(add, p.addMs), append(repair, p.repairMs), append(warm, p.warmMs), append(remove, p.removeMs)
		gossip = append(gossip, p.gossipMs...)
		migrated = append(migrated, float64(p.migrated)/2)
		bytes += float64(p.bytes)
		moveMs += p.addMs + p.removeMs - p.waitedMs
		moved += float64(p.migrated)
		cycles = append(cycles, float64(p.warm.cycles))
		if submitted, started, finished, ok := p.warm.stamps(); ok {
			run = append(run, ms(finished.Sub(started).Seconds()))
			queueWait = append(queueWait, ms(started.Sub(submitted).Seconds()))
		}
	}
	n := len(ps)
	rep.set("router.add_shard_ms", median(add), n)
	rep.set("router.repair_idle_ms", median(repair), n)
	rep.set("router.repair_scanned", float64(len(s.ids)), n)
	rep.set("router.relocate_warm_ms", median(warm), n)
	rep.set("router.drain_remove_ms", median(remove), n)
	rep.set("router.migrated_per_pass", median(migrated), n)
	rep.set("router.migrate_ms_per_posterior", ratio(moveMs, moved), int(moved))
	rep.set("router.transfer_mb_per_s", ratio(bytes/1e6, moveMs/1e3), int(moved))
	rep.set("cluster.gossip_converge_ms", median(gossip), len(gossip))
	rep.set("server.run_ms", median(run), len(run))
	rep.set("sched.queue_wait_ms", median(queueWait), len(queueWait))
	rep.set("sched.queue_wait_p95_ms", percentile(queueWait, 95), len(queueWait))
	rep.set("hier.cycles", median(cycles), n)

	d := diffCounters(before, after)
	d.report(rep, n)
	peerA, peerB := after.routers[1].Cluster, before.routers[1].Cluster
	rep.set("cluster.gossip_rounds", float64(peerA.GossipRounds-peerB.GossipRounds), 1)
	rep.set("cluster.docs_adopted", float64(peerA.DocsAdopted-peerB.DocsAdopted), 1)

	a, b := after.routers[0], before.routers[0]
	e.counters = d.traceCounters()
	e.counters["migration.passes"] = float64(a.Migration.Passes - b.Migration.Passes)
	e.counters["migration.migrated"] = float64(a.Migration.Migrated - b.Migration.Migrated)
	e.counters["migration.bytes"] = float64(a.Migration.Bytes - b.Migration.Bytes)
	e.counters["repair.sweeps"] = float64(a.Repair.Sweeps - b.Repair.Sweeps)
	e.counters["gossip.rounds"] = float64(peerA.GossipRounds - peerB.GossipRounds)
	e.counters["gossip.adopted"] = float64(peerA.DocsAdopted - peerB.DocsAdopted)
}

// transferMetrics times the posterior transfer endpoints one at a time,
// straight at the shards: export from the holder, import into and delete
// from the idle joiner, the holder's index; and the two codecs under them
// in-process.
func (s *rebalanceState) transferMetrics(ctx context.Context, e *env, rep *report) error {
	hc := newHTTPClient()
	id := s.ids[0]
	holder := s.cl.shardByInstance(encode.JobInstance(id))
	if holder == nil {
		return fmt.Errorf("job id %s names no shard", id)
	}
	exportURL := holder.base + "/v1/jobs/" + id + "/posterior?cov=full"
	importURL := s.joiner.base + "/v1/posteriors/" + id
	var raw json.RawMessage
	var exportS, importS, indexS []float64
	reps := e.reps(transferReps)
	for i := 0; i < reps; i++ {
		secs, err := rawCall(ctx, hc, http.MethodGet, exportURL, nil, &raw)
		if err != nil {
			return fmt.Errorf("posterior export: %w", err)
		}
		exportS = append(exportS, secs)
		if secs, err = rawCall(ctx, hc, http.MethodPut, importURL, raw, nil); err != nil {
			return fmt.Errorf("posterior import: %w", err)
		}
		importS = append(importS, secs)
		if _, err = rawCall(ctx, hc, http.MethodDelete, importURL, nil, nil); err != nil {
			return fmt.Errorf("posterior delete: %w", err)
		}
		if secs, err = rawCall(ctx, hc, http.MethodGet, holder.base+"/v1/posteriors", nil, nil); err != nil {
			return fmt.Errorf("posterior index: %w", err)
		}
		indexS = append(indexS, secs)
	}
	rep.set("server.posterior_export_ms", ms(median(exportS)), reps)
	rep.set("server.posterior_import_ms", ms(median(importS)), reps)
	rep.set("server.posterior_index_ms", ms(median(indexS)), reps)
	rep.set("server.posterior_kb", float64(len(raw))/1024, 1)

	var doc encode.PosteriorDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return err
	}
	decode, err := timeReps(reps, func() error { _, _, _, err := doc.Decode(); return err })
	if err != nil {
		return err
	}
	rep.set("encode.posterior_decode_ms", ms(median(decode)), reps)

	ringPoints := func(n int) []encode.RingPoint {
		var pts []encode.RingPoint
		for _, sh := range s.cl.shards[:n] {
			for v := 0; v < ringVNodes; v++ {
				pts = append(pts, encode.RingPoint{Hash: encode.KeyHash(fmt.Sprintf("%s#%d", sh.base, v)), Owner: sh.base})
			}
		}
		return pts
	}
	two, three := ringPoints(2), ringPoints(3)
	arcs, _ := timeReps(e.reps(replayReps), func() error { encode.ChangedArcs(two, three); return nil })
	rep.set("encode.changed_arcs_us", median(arcs)*1e6, len(arcs))
	return nil
}
