package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"phmse/internal/client"
	"phmse/internal/encode"
	"phmse/internal/molecule"
)

// The two serving workloads share one cluster shape — one router, two
// one-processor shards — and one closed-loop load shape: two clients, one
// connection each (the host has two CPUs; more clients than that would
// measure the benchmark's own queueing), polling every millisecond for
// warm jobs and every ten for cold ones.
const (
	serveClients = 2
	serveSetups  = 5
	tinyCount    = 8                                       // helix-1bp topologies
	smallCount   = 4                                       // helix-2bp topologies
	burstSize    = (tinyCount + smallCount) / serveClients // a client's share of a cold round
	warmMaxCycle = 4                                       // a warm start from a converged posterior needs no more
)

// jobRecord is one submit→wait→result round trip as the client saw it,
// plus the final status the shard reported.
type jobRecord struct {
	problem                                    *molecule.Problem
	warm                                       bool
	submitStart, submitEnd, waitEnd, resultEnd time.Time
	status                                     encode.JobStatus
	cycles                                     int
	err                                        error
}

func (j *jobRecord) latencyMs() float64 { return ms(j.resultEnd.Sub(j.submitStart).Seconds()) }

// stamps parses the shard's submitted/started/finished timestamps.
func (j *jobRecord) stamps() (submitted, started, finished time.Time, ok bool) {
	var err [3]error
	submitted, err[0] = time.Parse(time.RFC3339Nano, j.status.SubmittedAt)
	started, err[1] = time.Parse(time.RFC3339Nano, j.status.StartedAt)
	finished, err[2] = time.Parse(time.RFC3339Nano, j.status.FinishedAt)
	return submitted, started, finished, err[0] == nil && err[1] == nil && err[2] == nil
}

// check verifies one finished job's output; "" means correct.
func (j *jobRecord) check(doc encode.SolutionDoc) string {
	switch {
	case j.status.State != encode.JobDone:
		return fmt.Sprintf("job %s ended %s (%s)", j.status.ID, j.status.State, j.status.Error)
	case !doc.Converged:
		return fmt.Sprintf("job %s did not converge in %d cycles", j.status.ID, doc.Cycles)
	case len(doc.Positions) != len(j.problem.Atoms):
		return fmt.Sprintf("job %s returned %d atoms, sent %d", j.status.ID, len(doc.Positions), len(j.problem.Atoms))
	case j.warm && j.status.WarmStartFrom == "":
		return fmt.Sprintf("job %s does not report warm_start_from", j.status.ID)
	case j.warm && doc.Cycles > warmMaxCycle:
		return fmt.Sprintf("warm job %s took %d cycles, want ≤ %d", j.status.ID, doc.Cycles, warmMaxCycle)
	}
	return ""
}

// submitJob posts one solve (warm when from != "") and records the
// submit span.
func submitJob(ctx context.Context, cl *client.Client, p *molecule.Problem, params encode.SolveParams, from string) *jobRecord {
	j := &jobRecord{problem: p, warm: from != "", submitStart: time.Now()}
	if j.warm {
		j.status, j.err = cl.WarmStart(ctx, p, params, from)
	} else {
		j.status, j.err = cl.Submit(ctx, p, params)
	}
	j.submitEnd = time.Now()
	return j
}

// finishJob waits for the job, polling every poll, and fetches its result,
// recording both spans, and returns the failed check ("" when correct).
func finishJob(ctx context.Context, cl *client.Client, j *jobRecord, poll time.Duration) string {
	if j.err != nil {
		return fmt.Sprintf("submit refused: %v", j.err)
	}
	st, err := cl.Wait(ctx, j.status.ID, poll)
	j.waitEnd = time.Now()
	if err != nil {
		j.err = err
		return fmt.Sprintf("waiting for %s: %v", j.status.ID, err)
	}
	j.status = st
	doc, err := cl.Result(ctx, st.ID)
	j.resultEnd = time.Now()
	if err != nil {
		j.err = err
		return fmt.Sprintf("result of %s: %v", st.ID, err)
	}
	j.cycles = doc.Cycles
	return j.check(doc)
}

// trace records the job's spans: the client's three calls, and under the
// wait the admission wait and run the shard reported.
func (j *jobRecord) trace(tr *tracer) {
	if tr == nil || j.err != nil {
		return
	}
	id := j.status.ID
	root := tr.add(0, "job", id, j.submitStart, j.resultEnd)
	tr.add(root, "client.submit", id, j.submitStart, j.submitEnd)
	wait := tr.add(root, "client.wait", id, j.submitEnd, j.waitEnd)
	tr.add(root, "client.result", id, j.waitEnd, j.resultEnd)
	if submitted, started, finished, ok := j.stamps(); ok {
		tr.add(wait, "sched.queue_wait", id, submitted, started)
		tr.add(wait, "server.run", id, started, finished)
	}
}

// serveState is a running cluster plus what the load loops need.
type serveState struct {
	cl       *cluster
	tiny     []*molecule.Problem
	small    []*molecule.Problem
	seedJobs []string // tiny[k]'s retained cold solve, the warm-start source
}

// setupServe starts the cluster and cold-solves the eight tiny topologies
// with keep_posterior; it is the timed set-up of both serving workloads.
func setupServe(ctx context.Context, e *env) (*serveState, error) {
	cl, err := startCluster(ctx, e, 1, 2, 2)
	if err != nil {
		return nil, err
	}
	s := &serveState{cl: cl, tiny: helixTopologies(1, tinyCount), small: helixTopologies(2, smallCount)}
	s.seedJobs, err = seedPosteriors(ctx, cl, s.tiny, tinyParams)
	return s, err
}

// seedPosteriors cold-solves every problem through the first router with
// keep_posterior, two submitters at a time, and returns the job ids in
// problem order.
func seedPosteriors(ctx context.Context, cl *cluster, problems []*molecule.Problem, params func(int) encode.SolveParams) ([]string, error) {
	ids := make([]string, len(problems))
	errs := make([]error, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			jc := cl.jobClient()
			for k := c; k < len(problems); k += serveClients {
				par := params(k)
				par.KeepPosterior = true
				j := submitJob(ctx, jc, problems[k], par, "")
				if msg := finishJob(ctx, jc, j, pollEvery); msg != "" {
					errs[c] = fmt.Errorf("seed solve %d: %s", k, msg)
					return
				}
				if !j.status.PosteriorKept {
					errs[c] = fmt.Errorf("seed solve %d: posterior not kept", k)
					return
				}
				ids[k] = j.status.ID
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ids, nil
}

// repeatSetup runs the timed set-up n times, tearing all but the last
// down again, and returns the last one's state with every duration.
func repeatSetup[T any](e *env, n int, setup func() (T, error)) (T, []float64, error) {
	var state T
	var secs []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			e.sup.stopAll()
		}
		t0 := time.Now()
		var err error
		state, err = setup()
		if err != nil {
			return state, nil, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return state, secs, nil
}

// loadFunc is one client's closed loop: it issues work until `until` and
// returns the jobs it completed and the failed checks.
type loadFunc func(ctx context.Context, jc *client.Client, rng *rand.Rand, until time.Time) ([]*jobRecord, []string)

// slice is a stretch of a phase that the end-to-end numbers are first
// taken over — a second of the warm workload's window, a round of the cold
// one's — before the run reports the fastest decile of them (fastDecile).
type slice struct {
	secs      float64
	latencies []float64 // of the jobs completed in it
}

// warmSlice is the length of the warm workload's slices: ≈95 jobs each.
const warmSlice = time.Second

// phaseStats is what a load phase did.
type phaseStats struct {
	jobs      []*jobRecord
	failures  []string
	latencies []float64 // of every completed job
	slices    []slice
}

func (s *phaseStats) add(jobs []*jobRecord, failures []string) {
	s.failures = append(s.failures, failures...)
	for _, j := range jobs {
		s.jobs = append(s.jobs, j)
		if j.err == nil {
			s.latencies = append(s.latencies, j.latencyMs())
		}
	}
}

// loadGen runs the clients' load phase by phase; the clients keep their
// connections and random streams across phases.
type loadGen struct {
	clients []*client.Client
	rngs    []*rand.Rand
	dealer  *roundDealer
}

func newLoadGen(cl *cluster, seed int64) *loadGen {
	g := &loadGen{dealer: newRoundDealer(clientRNG(seed, serveClients))}
	for c := 0; c < serveClients; c++ {
		g.clients = append(g.clients, cl.jobClient())
		g.rngs = append(g.rngs, clientRNG(seed, c))
	}
	return g
}

// freeRun runs every client's own closed loop for d and slices the phase
// by the second a job completed in. Jobs that complete after the last
// whole slice count in none.
func (g *loadGen) freeRun(ctx context.Context, d time.Duration, loop loadFunc) phaseStats {
	type clientRun struct {
		jobs     []*jobRecord
		failures []string
	}
	runs := make([]clientRun, len(g.clients))
	begin := time.Now()
	until := begin.Add(d)
	var wg sync.WaitGroup
	for c := range g.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			runs[c].jobs, runs[c].failures = loop(ctx, g.clients[c], g.rngs[c], until)
		}(c)
	}
	wg.Wait()

	var stats phaseStats
	for _, r := range runs {
		stats.add(r.jobs, r.failures)
	}
	width := min(warmSlice, d)
	stats.slices = cutSlices(stats.jobs, begin, width, int(d/width))
	return stats
}

// cutSlices sorts the completed jobs into the first n slices of the given
// width after begin, by the time their result was fetched. A slice's clock
// runs from the last completion before it to its own last completion, so
// its rate is jobs over exactly as many gaps between completions, not a
// whole number over a whole second. Slices nothing completed in are left
// out; their time falls to the next one.
func cutSlices(jobs []*jobRecord, begin time.Time, width time.Duration, n int) []slice {
	var done []*jobRecord
	for _, j := range jobs {
		if j.err == nil && j.resultEnd.Sub(begin) < time.Duration(n)*width {
			done = append(done, j)
		}
	}
	sort.Slice(done, func(i, k int) bool { return done[i].resultEnd.Before(done[k].resultEnd) })
	var out []slice
	edge, index := begin, -1
	for _, j := range done {
		if i := int(j.resultEnd.Sub(begin) / width); i != index {
			out = append(out, slice{})
			index = i
		}
		cur := &out[len(out)-1]
		cur.latencies = append(cur.latencies, j.latencyMs())
		cur.secs += j.resultEnd.Sub(edge).Seconds()
		edge = j.resultEnd
	}
	return out
}

// endToEnd reports the three job metrics of a serving phase: each is taken
// per slice, and the run's value is the fastest decile of the slices'.
func (s *phaseStats) endToEnd(rep *report, workload string) {
	var rates, p50s, tails []float64
	for _, sl := range s.slices {
		rates = append(rates, ratio(float64(len(sl.latencies)), sl.secs))
		if len(sl.latencies) > 0 {
			p50s = append(p50s, median(sl.latencies))
			tails = append(tails, tailOf(workload, sl.latencies))
		}
	}
	n := len(s.latencies)
	rep.set("jobs_per_s", fastDecile(rates, higher), n)
	rep.set("job_p50_ms", fastDecile(p50s, lower), n)
	rep.set("job_tail_ms", fastDecile(tails, lower), n)
}

func runWarmTiny(ctx context.Context, e *env) (*report, error) {
	return runServe(ctx, e, true)
}

func runColdBurst(ctx context.Context, e *env) (*report, error) {
	return runServe(ctx, e, false)
}

// runServe is the body of both serving workloads; warm selects the load
// loop.
func runServe(ctx context.Context, e *env, warm bool) (*report, error) {
	rep := newReport()
	s, setups, err := repeatSetup(e, e.setups(serveSetups), func() (*serveState, error) { return setupServe(ctx, e) })
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", median(setups), len(setups))

	if rep.InputDigest, err = inputDigest(e.workload, e.seed, e.smoke); err != nil {
		return nil, err
	}
	gen := newLoadGen(s.cl, e.seed)
	phase := func(d time.Duration) phaseStats { return gen.coldRounds(ctx, s, d) }
	if warm {
		phase = func(d time.Duration) phaseStats { return gen.freeRun(ctx, d, s.warmLoop) }
	}
	window := time.Duration(e.seconds * float64(time.Second))
	warmup := window / 6

	// A traced run first measures a short untraced reference window; the
	// median latency difference to the traced window is the overhead of
	// tracing.
	refP50 := 0.0
	if !e.smoke { // a smoke run has no steady numbers to protect
		phase(warmup) // discarded: caches fill, connections open
	}
	if e.traced {
		refP50 = median(phase(window / 4).latencies)
	}
	before, err := s.cl.readCounters(ctx)
	if err != nil {
		return nil, err
	}
	stats := phase(window)
	after, err := s.cl.readCounters(ctx)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	rep.Attempted = len(stats.jobs)
	for _, msg := range stats.failures {
		rep.failf("%s", msg)
	}
	if len(stats.latencies) == 0 {
		return nil, fmt.Errorf("no job completed in the window: %v", rep.Notes)
	}
	n := len(stats.latencies)
	stats.endToEnd(rep, e.workload)
	rep.set("bench.rss_peak_mb", s.cl.rssPeakMB(), 1)
	if !e.traced {
		return rep, nil
	}

	for _, j := range stats.jobs {
		j.trace(e.tr)
	}
	rep.set("bench.trace_overhead_share", ratio(median(stats.latencies)-refP50, refP50), n)
	s.layerMetrics(rep, e, stats, before, after)
	if err := s.replayEncode(rep, e, warm); err != nil {
		return nil, err
	}
	if warm {
		if err := s.warmSolveFloor(ctx, e, rep); err != nil {
			return nil, err
		}
	}
	if err := s.routerOverhead(ctx, e, rep, warm); err != nil {
		return nil, err
	}
	rep.set("bench.accounted_share", accountedShare(rep, stats.jobs), n)
	return rep, nil
}

// accountedShare is the part of a job's latency the decomposition
// explains, as the median over jobs of explained / measured. Explained is
// the job's own admission wait, run and poll lag (from its status
// timestamps) plus the per-request costs measured one at a time after the
// window: request encoding, the router's three overheads, and the direct
// submit and result round trips. What is left over is time the layers
// spend waiting on each other under load. The share is taken per job, not
// from the metrics' medians, because a burst's positions make the parts
// multimodal and medians of parts do not add up to the median of the sum.
func accountedShare(rep *report, jobs []*jobRecord) float64 {
	perRequest := 0.0
	for _, name := range []string{"encode.write_problem_ms", "router.submit_overhead_ms", "router.status_overhead_ms",
		"router.result_overhead_ms", "server.submit_direct_ms", "server.result_direct_ms"} {
		perRequest += rep.Metrics[name]
	}
	var shares []float64
	for _, j := range jobs {
		if submitted, _, _, ok := j.stamps(); ok && j.err == nil {
			own := ms(j.waitEnd.Sub(submitted).Seconds()) // queue wait + run + poll lag
			shares = append(shares, (perRequest+own)/j.latencyMs())
		}
	}
	return median(shares)
}

// warmLoop cycles the eight tiny topologies in a seeded order, each a warm
// start from the fixed seed job: no chaining and no keep_posterior, so the
// work per request is constant.
func (s *serveState) warmLoop(ctx context.Context, jc *client.Client, rng *rand.Rand, until time.Time) ([]*jobRecord, []string) {
	var jobs []*jobRecord
	var failures []string
	order := newDeck(rng, len(s.tiny))
	for time.Now().Before(until) && ctx.Err() == nil {
		k := order.draw()
		j := submitJob(ctx, jc, s.tiny[k], encode.SolveParams{}, s.seedJobs[k])
		if msg := finishJob(ctx, jc, j, pollEvery); msg != "" {
			failures = append(failures, msg)
			time.Sleep(10 * time.Millisecond) // do not spin on a failing cluster
		}
		jobs = append(jobs, j)
	}
	return jobs, failures
}

// pick names one cold job of a round.
type pick struct {
	small bool
	k     int
}

// roundDealer deals the cold workload's rounds. A round is the whole deck,
// each of the eight tiny and four small topologies once, so every round
// asks each shard for exactly the same solves. Each client's burst is four
// tiny solves and then two small ones: a small solve costs ten tiny ones,
// and wherever one lands ahead of a tiny job in a shard's queue it adds
// half a second to everything behind it, so a shuffled burst has no steady
// median latency (the issue's "burst position makes it noisy"). The seed
// draws which client submits which topology, and in what order within the
// two groups.
type roundDealer struct {
	tiny, small *deck
}

func newRoundDealer(rng *rand.Rand) *roundDealer {
	return &roundDealer{tiny: newDeck(rng, tinyCount), small: newDeck(rng, smallCount)}
}

// next returns the next round; client c submits next()[c] in order.
func (d *roundDealer) next() [serveClients][burstSize]pick {
	var bursts [serveClients][burstSize]pick
	for c := range bursts {
		for i := range bursts[c] {
			if i < tinyCount/serveClients {
				bursts[c][i] = pick{k: d.tiny.draw()}
			} else {
				bursts[c][i] = pick{small: true, k: d.small.draw()}
			}
		}
	}
	return bursts
}

// coldBurst is one client's half of a round: submit a burst of six cold
// solves, then collect all six. Up to twelve jobs queue behind the two
// one-processor shards, so admission wait and the plan cache are
// exercised.
func (s *serveState) coldBurst(ctx context.Context, jc *client.Client, burst [burstSize]pick) ([]*jobRecord, []string) {
	var jobs [burstSize]*jobRecord
	var failures []string
	for i, pk := range burst {
		p, params := s.tiny[pk.k], tinyParams(pk.k)
		if pk.small {
			p, params = s.small[pk.k], smallParams(pk.k)
		}
		jobs[i] = submitJob(ctx, jc, p, params, "")
	}
	for _, j := range jobs {
		if msg := finishJob(ctx, jc, j, coldPollEvery); msg != "" {
			failures = append(failures, msg)
			time.Sleep(10 * time.Millisecond)
		}
	}
	return jobs[:], failures
}

// coldRounds is the cold workload's load: rounds in lockstep until the
// deadline, each of them a slice. Both clients start their bursts together
// and the next round starts when both are done, so no round inherits a
// queue from the one before and each takes the time of its busier shard.
// Free-running clients drift against each other, and how their bursts
// happen to overlap then decides how long a shard idles.
func (g *loadGen) coldRounds(ctx context.Context, s *serveState, d time.Duration) phaseStats {
	var stats phaseStats
	until := time.Now().Add(d)
	for time.Now().Before(until) && ctx.Err() == nil {
		bursts := g.dealer.next()
		var jobs [serveClients][]*jobRecord
		var failures [serveClients][]string
		t0 := time.Now()
		var wg sync.WaitGroup
		for c := range g.clients {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				jobs[c], failures[c] = s.coldBurst(ctx, g.clients[c], bursts[c])
			}(c)
		}
		wg.Wait()
		round := slice{secs: time.Since(t0).Seconds()}
		for c := range jobs {
			stats.add(jobs[c], failures[c])
			for _, j := range jobs[c] {
				if j.err == nil {
					round.latencies = append(round.latencies, j.latencyMs())
				}
			}
		}
		stats.slices = append(stats.slices, round)
	}
	return stats
}
