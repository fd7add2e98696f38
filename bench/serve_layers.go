package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"phmse/internal/core"
	"phmse/internal/encode"
	"phmse/internal/pdb"
)

// The per-layer side of the serving workloads. Everything here is measured
// from outside the programs: spans around client calls, the timestamps a
// JobStatus carries, deltas of the counters the daemons serve on /metrics,
// /proc CPU clocks, and in-process replays of the wire codecs on the bodies
// the workload sent.

const (
	replayReps = 200
	// decomposeBudget caps the via-router/direct alternation, which on the
	// cold workload costs a solve per sample.
	decomposeBudget = 6 * time.Second
	decomposeMin    = 20
)

// layerMetrics derives the client, scheduler, server and router numbers of
// the measured window.
func (s *serveState) layerMetrics(rep *report, e *env, stats phaseStats, before, after counters) {
	var submit, wait, result, pollLag, queueWait, run, cycles []float64
	runSum := 0.0
	for _, j := range stats.jobs {
		if j.err != nil {
			continue
		}
		submit = append(submit, ms(j.submitEnd.Sub(j.submitStart).Seconds()))
		wait = append(wait, ms(j.waitEnd.Sub(j.submitEnd).Seconds()))
		result = append(result, ms(j.resultEnd.Sub(j.waitEnd).Seconds()))
		cycles = append(cycles, float64(j.cycles))
		if submitted, started, finished, ok := j.stamps(); ok {
			pollLag = append(pollLag, ms(j.waitEnd.Sub(finished).Seconds()))
			queueWait = append(queueWait, ms(started.Sub(submitted).Seconds()))
			run = append(run, ms(finished.Sub(started).Seconds()))
			runSum += finished.Sub(started).Seconds()
		}
	}
	n := len(submit)
	jobs := float64(n)
	rep.set("client.submit_ms", median(submit), n)
	rep.set("client.wait_ms", median(wait), n)
	rep.set("client.result_ms", median(result), n)
	rep.set("client.poll_lag_ms", median(pollLag), len(pollLag))
	rep.set("sched.queue_wait_ms", median(queueWait), len(queueWait))
	rep.set("sched.queue_wait_p95_ms", percentile(queueWait, 95), len(queueWait))
	rep.set("server.run_ms", median(run), len(run))
	rep.set("hier.cycles", median(cycles), n)

	// Every request the clients made was one forward: per job one submit,
	// one result, and the rest status polls.
	d := diffCounters(before, after)
	d.report(rep, n)
	rep.set("client.polls_per_job", ratio(d.forwarded-2*jobs, jobs), n)
	rep.set("server.nonkernel_share", 1-ratio(d.times.Total(), runSum), len(run))
	e.counters = d.traceCounters()
}

// replayEncode times the wire codecs in-process on the first topology's
// request — the body the router decodes in SolveRouting and the shard
// decodes again — and on a solution document of the same problem.
func (s *serveState) replayEncode(rep *report, e *env, warm bool) error {
	p := s.tiny[0]
	params := tinyParams(0)
	var ref *encode.WarmStartRef
	if warm {
		params, ref = encode.SolveParams{}, &encode.WarmStartRef{Job: s.seedJobs[0]}
	}
	body, err := requestBody(p, params, ref)
	if err != nil {
		return err
	}
	rep.set("encode.request_kb", float64(len(body))/1024, 1)

	pos := p.TruePositions()
	variances := make([]float64, len(pos))
	for i := range variances {
		variances[i] = 0.01
	}
	timed := []struct {
		name string
		f    func() error
	}{
		{"encode.write_problem_ms", func() error { _, err := requestBody(p, params, ref); return err }},
		{"encode.read_solve_request_ms", func() error { _, _, _, err := encode.ReadSolveRequest(bytes.NewReader(body)); return err }},
		{"encode.solve_routing_ms", func() error { _, _, err := encode.SolveRouting(body); return err }},
		{"encode.topology_hash_ms", func() error { encode.TopologyHash(p); return nil }},
		{"encode.structure_hash_ms", func() error { encode.StructureHash(p); return nil }},
		{"encode.solution_doc_ms", func() error {
			_, err := json.Marshal(encode.NewSolutionDoc(p.Name, pos, variances, 4, true, 1e-4, 1e-3, nil))
			return err
		}},
		{"pdb.write_ms", func() error { return pdb.Write(io.Discard, p.Name, p.Atoms, pos, variances) }},
	}
	for _, t := range timed {
		secs, err := timeReps(e.reps(replayReps), t.f)
		if err != nil {
			return fmt.Errorf("%s: %w", t.name, err)
		}
		rep.set(t.name, ms(median(secs)), len(secs))
	}
	return nil
}

// warmSolveFloor times the solver alone on the warm workload's job: an
// in-process SolveFrom on the first seed job's posterior — the floor under
// all the serving overhead.
func (s *serveState) warmSolveFloor(ctx context.Context, e *env, rep *report) error {
	doc, err := s.cl.jobClient().Posterior(ctx, s.seedJobs[0], false)
	if err != nil {
		return fmt.Errorf("fetching seed posterior: %w", err)
	}
	pos, coordVar, _, err := doc.Decode()
	if err != nil {
		return err
	}
	post := &core.Posterior{Positions: pos, CoordVariances: coordVar}
	est, err := core.New(s.tiny[0], core.Config{Mode: core.Hierarchical, Procs: 1})
	if err != nil {
		return err
	}
	secs, err := timeReps(e.reps(50), func() error {
		_, err := est.SolveFrom(ctx, post)
		return err
	})
	if err != nil {
		return fmt.Errorf("warm solve: %w", err)
	}
	rep.set("core.warm_solve_ms", ms(median(secs)), len(secs))
	return nil
}

// rawCall issues one request with a pre-built body and returns the seconds
// until the response body was fully read.
func rawCall(ctx context.Context, hc *http.Client, method, url string, body []byte, out any) (float64, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("Authorization", "Bearer "+adminToken)
	t0 := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	secs := time.Since(t0).Seconds()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return 0, fmt.Errorf("%s %s: http %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return 0, fmt.Errorf("%s %s: %w", method, url, err)
		}
	}
	return secs, nil
}

// routerOverhead alternates the same submit, status and result requests
// through the router and straight to the owning shard, with pre-encoded
// bodies; the difference of the medians is what the router hop costs.
func (s *serveState) routerOverhead(ctx context.Context, e *env, rep *report, warm bool) error {
	hc := newHTTPClient()
	waiter := s.cl.jobClient()
	routerBase := s.cl.routers[0].base
	var via, direct [3][]float64 // submit, status, result

	round := func(base string, body []byte, into *[3][]float64) (string, error) {
		var st encode.JobStatus
		secs, err := rawCall(ctx, hc, http.MethodPost, base+"/v1/solve", body, &st)
		if err != nil {
			return "", err
		}
		into[0] = append(into[0], ms(secs))
		// The router serves any shard's job by id, so one waiter does.
		if _, err := waiter.Wait(ctx, st.ID, pollEvery); err != nil {
			return "", err
		}
		if secs, err = rawCall(ctx, hc, http.MethodGet, base+"/v1/jobs/"+st.ID, nil, nil); err != nil {
			return "", err
		}
		into[1] = append(into[1], ms(secs))
		if secs, err = rawCall(ctx, hc, http.MethodGet, base+"/v1/jobs/"+st.ID+"/result", nil, nil); err != nil {
			return "", err
		}
		into[2] = append(into[2], ms(secs))
		return st.Shard, nil
	}

	budget, atLeast := decomposeBudget, decomposeMin
	if e.smoke {
		budget, atLeast = 0, 4
	}
	deadline := time.Now().Add(budget)
	for i := 0; i < replayReps && (i < atLeast || time.Now().Before(deadline)); i++ {
		k := i % len(s.tiny)
		params := tinyParams(k)
		var ref *encode.WarmStartRef
		if warm {
			params, ref = encode.SolveParams{}, &encode.WarmStartRef{Job: s.seedJobs[k]}
		}
		body, err := requestBody(s.tiny[k], params, ref)
		if err != nil {
			return err
		}
		inst, err := round(routerBase, body, &via)
		if err != nil {
			return fmt.Errorf("via-router round: %w", err)
		}
		owner := s.cl.shardByInstance(inst)
		if owner == nil {
			return fmt.Errorf("job status names unknown shard %q", inst)
		}
		if _, err := round(owner.base, body, &direct); err != nil {
			return fmt.Errorf("direct round: %w", err)
		}
	}
	n := len(via[0])
	for i, name := range []string{"router.submit_overhead_ms", "router.status_overhead_ms", "router.result_overhead_ms"} {
		rep.set(name, median(via[i])-median(direct[i]), n)
	}
	rep.set("server.submit_direct_ms", median(direct[0]), n)
	rep.set("server.result_direct_ms", median(direct[2]), n)
	return nil
}
