package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"phmse/internal/client"
	"phmse/internal/encode"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// smoke test re-executes os.Executable() with "child …" exactly as the
// benchmark does.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30} // sorted: 10 20 30 40 50
	for _, c := range []struct{ p, want float64 }{
		{1, 10}, {20, 10}, {21, 20}, {50, 30}, {60, 30}, {61, 40}, {95, 50}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// 20 samples 1..20: p95 is the 19th (one sample beyond it).
	var twenty []float64
	for i := 1; i <= 20; i++ {
		twenty = append(twenty, float64(i))
	}
	if got := percentile(twenty, 95); got != 19 {
		t.Errorf("p95 of 1..20 = %v, want 19", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	ten := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	q1, q3 := quartiles(ten)
	if !near(q1, 2.75) || !near(q3, 8.25) || !near(median(ten), 5.5) {
		t.Errorf("ten: q1 %v median %v q3 %v, want 2.75 5.5 8.25", q1, median(ten), q3)
	}
	// statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
	five := []float64{160, 10, 40, 20, 80}
	q1, q3 = quartiles(five)
	if !near(q1, 15) || !near(q3, 120) || !near(median(five), 40) {
		t.Errorf("five: q1 %v median %v q3 %v, want 15 40 120", q1, median(five), q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q3 = quartiles([]float64{1, 2})
	if !near(q1, 0.75) || !near(q3, 2.25) {
		t.Errorf("two: q1 %v q3 %v, want 0.75 2.25", q1, q3)
	}
	if got := spread(five); !near(got, (120.0-15.0)/40.0) {
		t.Errorf("spread = %v, want %v", got, (120.0-15.0)/40.0)
	}
	if q1, q3 = quartiles([]float64{3}); q1 != 3 || q3 != 3 {
		t.Errorf("one sample: q1 %v q3 %v, want 3 3", q1, q3)
	}
}

func TestTailPercentile(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {19, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func metric(better string, bound float64, values ...float64) metricResult {
	q1, q3 := quartiles(values)
	return metricResult{Value: median(values), Better: better, Bound: bound, Q1: q1, Q3: q3, Values: values}
}

func TestCompareMetric(t *testing.T) {
	for _, c := range []struct {
		name      string
		old, cur  metricResult
		wantDelta float64
		want      string
	}{
		{"lower: +4% inside a 10% bound", metric(lower, 0.10, 100, 100, 100), metric(lower, 0.10, 104, 104, 104), 0.04, verdictSame},
		{"lower: +15% is worse", metric(lower, 0.10, 100, 100, 100), metric(lower, 0.10, 115, 115, 115), 0.15, verdictWorse},
		{"lower: -15% is better", metric(lower, 0.10, 100, 100, 100), metric(lower, 0.10, 85, 85, 85), -0.15, verdictBetter},
		{"higher: -15% is worse", metric(higher, 0.10, 100, 100, 100), metric(higher, 0.10, 85, 85, 85), -0.15, verdictWorse},
		{"higher: +15% is better", metric(higher, 0.10, 100, 100, 100), metric(higher, 0.10, 115, 115, 115), 0.15, verdictBetter},
		// Old runs 80..120: quartiles 80 and 120, spread 40% > 10%, ranges overlap.
		{"noisy old side is unresolved", metric(lower, 0.10, 80, 100, 120), metric(lower, 0.10, 104, 104, 104), 0.04, verdictUnresolved},
		// Noisy, but every new run beats every old run.
		{"noisy but separated is better", metric(lower, 0.10, 80, 100, 120), metric(lower, 0.10, 50, 60, 70), -0.40, verdictBetter},
		{"noisy but separated the wrong way is worse", metric(higher, 0.10, 80, 100, 120), metric(higher, 0.10, 50, 60, 70), -0.40, verdictWorse},
	} {
		delta, got := compareMetric(c.old, c.cur)
		if got != c.want || !near(delta, c.wantDelta) {
			t.Errorf("%s: delta %v verdict %s, want %v %s", c.name, delta, got, c.wantDelta, c.want)
		}
	}
}

func TestCompareResultsFailedShareAndExitCode(t *testing.T) {
	mk := func(failed int, p50 float64) *result {
		r := &result{SchemaVersion: schemaVersion}
		for _, w := range workloads {
			wr := workloadResult{Name: w.Name, Runs: 3, Attempted: 100, Failed: failed, Metrics: map[string]metricResult{}}
			for _, m := range endToEnd {
				wr.Metrics[m.Name] = metric(m.Better, m.Bound, p50, p50, p50)
			}
			r.Workloads = append(r.Workloads, wr)
		}
		return r
	}
	rows, err := compareResults(mk(0, 100), mk(0, 100))
	if err != nil {
		t.Fatal(err)
	}
	if want := len(workloads) * (len(endToEnd) + 1); len(rows) != want {
		t.Fatalf("%d rows, want %d (every workload × metric, plus failed_share)", len(rows), want)
	}
	for _, r := range rows {
		if r.Verdict != verdictSame {
			t.Errorf("A/A %s %s: %s, want same", r.Workload, r.Metric, r.Verdict)
		}
	}
	rows, err = compareResults(mk(0, 100), mk(1, 100))
	if err != nil {
		t.Fatal(err)
	}
	worse := 0
	for _, r := range rows {
		if r.Verdict == verdictWorse {
			worse++
			if r.Metric != "failed_share" {
				t.Errorf("unexpected worse row %s %s", r.Workload, r.Metric)
			}
		}
	}
	if worse != len(workloads) {
		t.Errorf("%d worse rows for a rise in failed_share, want %d", worse, len(workloads))
	}

	// Through the command: exit 0 on A/A, 1 on a regression.
	dir := t.TempDir()
	write := func(name string, r *result) string {
		path := filepath.Join(dir, name)
		if err := r.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow := write("old.json", mk(0, 100)), write("same.json", mk(0, 103)), write("slow.json", mk(0, 150))
	stdout := os.Stdout
	os.Stdout, _ = os.Open(os.DevNull)
	defer func() { os.Stdout = stdout }()
	if code := compareMain([]string{base, same}); code != 0 {
		t.Errorf("compare A/A exit %d, want 0", code)
	}
	// setup_s, job_p50_ms and job_tail_ms are lower-is-better: +50% is a
	// regression beyond any bound.
	if code := compareMain([]string{base, slow}); code != 1 {
		t.Errorf("compare with a regression exit %d, want 1", code)
	}
}

func TestSelfTimes(t *testing.T) {
	// A 100 ns job with children covering [10,40] and, overlapping each
	// other, [50,80] and [70,90]; the last has a grandchild [75,85].
	spans := []span{
		{ID: 1, Name: "job", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "submit", StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, Name: "wait", StartNs: 50, EndNs: 80},
		{ID: 4, Parent: 1, Name: "result", StartNs: 70, EndNs: 90},
		{ID: 5, Parent: 4, Name: "decode", StartNs: 75, EndNs: 85},
	}
	got := selfTimes(spans)
	want := map[string]float64{"job": 30e-9, "submit": 30e-9, "wait": 30e-9, "result": 10e-9, "decode": 10e-9}
	for name, w := range want {
		if !near(got[name]*1e9, w*1e9) {
			t.Errorf("self time of %s = %v ns, want %v ns", name, got[name]*1e9, w*1e9)
		}
	}
}

// TestBenchmarkJSONMatchesSpec keeps the driver's declaration and the
// program's own in step.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatal(err)
	}
	if want := declaredBenchmark(); !reflect.DeepEqual(onDisk, want) {
		expected, _ := json.MarshalIndent(want, "", "  ")
		t.Fatalf("BENCHMARK.json differs from bench/spec.go; expected:\n%s", expected)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != lower && m.Better != higher {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestRequestBodyMatchesClient pins that the bodies the per-layer replays
// and the digest work on are byte-for-byte what internal/client sends.
func TestRequestBodyMatchesClient(t *testing.T) {
	var got []byte
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got, _ = io.ReadAll(r.Body)
		json.NewEncoder(w).Encode(encode.JobStatus{ID: "job-000001", State: encode.JobQueued})
	}))
	defer srv.Close()
	p := helixTopologies(1, 1)[0]
	cl := client.New(srv.URL)
	ctx := context.Background()

	if _, err := cl.Submit(ctx, p, tinyParams(1)); err != nil {
		t.Fatal(err)
	}
	want, err := requestBody(p, tinyParams(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("cold submit: client sent %d bytes, requestBody built %d different ones", len(got), len(want))
	}

	if _, err := cl.WarmStart(ctx, p, encode.SolveParams{}, "s1.job-000007"); err != nil {
		t.Fatal(err)
	}
	want, err = requestBody(p, encode.SolveParams{}, &encode.WarmStartRef{Job: "s1.job-000007"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("warm start: client sent %d bytes, requestBody built %d different ones", len(got), len(want))
	}
}

// TestInputDigestFollowsSeed pins that a seed determines the generated
// inputs: same seed, same bytes; another seed, other bytes.
func TestInputDigestFollowsSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := inputDigest(w.Name, 7, true)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := inputDigest(w.Name, 7, true)
		c, _ := inputDigest(w.Name, 8, true)
		if a != b {
			t.Errorf("%s: seed 7 gave digests %s and %s", w.Name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", w.Name, a)
		}
		if digestNumber(a) == 0 || digestNumber(a) != math.Trunc(digestNumber(a)) || digestNumber(a) >= 1<<48 {
			t.Errorf("%s: digestNumber(%s) = %v is not a 48-bit integer", w.Name, a, digestNumber(a))
		}
	}
}

func TestCutSlices(t *testing.T) {
	begin := time.Unix(1000, 0)
	job := func(startMs, endMs int) *jobRecord {
		return &jobRecord{submitStart: begin.Add(time.Duration(startMs) * time.Millisecond), resultEnd: begin.Add(time.Duration(endMs) * time.Millisecond)}
	}
	jobs := []*jobRecord{
		job(900, 1400), job(0, 400), job(300, 900), // out of order on purpose
		job(2100, 2500),              // slice 2; slice 1 saw nothing
		job(2500, 3100),              // past the three slices asked for
		{err: errors.New("refused")}, // failed: counts nowhere
	}
	got := cutSlices(jobs, begin, time.Second, 3)
	want := []slice{
		{secs: 0.9, latencies: []float64{400, 600}},
		{secs: 0.5, latencies: []float64{500}},
		{secs: 1.1, latencies: []float64{400}},
	}
	if len(got) != len(want) {
		t.Fatalf("cutSlices gave %d slices, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if math.Abs(got[i].secs-want[i].secs) > 1e-9 || !slices.Equal(got[i].latencies, want[i].latencies) {
			t.Errorf("slice %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestFastDecile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 9, 8, 7, 6, 10, 11, 12}
	if got := fastDecile(xs, lower); got != 2 {
		t.Errorf("fastDecile(lower) of 1..12 = %v, want the second smallest", got)
	}
	if got := fastDecile(xs, higher); got != 11 {
		t.Errorf("fastDecile(higher) of 1..12 = %v, want the second largest", got)
	}
	if got := fastDecile(xs[:6], lower); got != 1 {
		t.Errorf("fastDecile(lower) of six values = %v, want the smallest", got)
	}
}

// A cold round is the whole deck, dealt four tiny then two small per
// client: the work of a round may not follow the seed.
func TestRoundDealerDealsTheWholeDeck(t *testing.T) {
	d := newRoundDealer(clientRNG(7, serveClients))
	for round := 0; round < 5; round++ {
		seen := map[pick]int{}
		for c, burst := range d.next() {
			for i, pk := range burst {
				if wantSmall := i >= tinyCount/serveClients; pk.small != wantSmall {
					t.Errorf("round %d client %d position %d: small = %v, want %v", round, c, i, pk.small, wantSmall)
				}
				seen[pk]++
			}
		}
		if len(seen) != tinyCount+smallCount {
			t.Errorf("round %d dealt %d distinct topologies, want %d: %v", round, len(seen), tinyCount+smallCount, seen)
		}
	}
	if a, b := newRoundDealer(clientRNG(7, serveClients)).next(), newRoundDealer(clientRNG(7, serveClients)).next(); a != b {
		t.Errorf("seed 7 dealt %v and %v", a, b)
	}
}

func TestCheckPortFreeRefusesATakenPort(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")
	if err := checkPortFree(addr); err == nil {
		t.Errorf("checkPortFree(%s) accepted a port a server listens on", addr)
	}
	srv.Close()
	if err := checkPortFree(addr); err != nil {
		t.Errorf("checkPortFree(%s) after close: %v", addr, err)
	}
}

// TestSmoke runs the whole ladder end to end in smoke mode, traced — the
// traced run executes everything the untraced one does and the per-layer
// measurements on top: real daemons are built and spawned, every output
// check must pass, every declared metric must be measured by some workload,
// nothing may outlive the run, the result file must read back, and a single
// untraced run must end in the driver's result line.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemons")
	}
	p, err := locate()
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "traced.json")
	start := time.Now()
	if code := runMain([]string{"--smoke", "--seconds", "1", "--trace", "1", "--seed", "5", "--out", out}); code != 0 {
		t.Fatalf("smoke run exited %d", code)
	}
	t.Logf("smoke ladder took %.1fs", time.Since(start).Seconds())

	res, err := readResult(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != len(workloads) || !res.Traced || !res.Smoke || res.Host.NProc == 0 {
		t.Fatalf("result header: %d workloads, traced=%v smoke=%v host=%+v", len(res.Workloads), res.Traced, res.Smoke, res.Host)
	}
	measured := map[string]bool{}
	for _, w := range res.Workloads {
		if w.Failed != 0 || w.Attempted < 1 {
			t.Errorf("%s: %d of %d operations failed: %v", w.Name, w.Failed, w.Attempted, w.Notes)
		}
		for _, m := range endToEnd {
			if v := w.Metrics[m.Name].Value; !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, v)
			}
		}
		for name, m := range w.Metrics {
			if m.Value != 0 {
				measured[name] = true
			}
		}
		trace := filepath.Join(p.outDir, "trace-"+w.Name+".jsonl")
		if data, err := os.ReadFile(trace); err != nil || bytes.Count(data, []byte("\n")) < 2 {
			t.Errorf("%s: trace file %s missing or empty (%v)", w.Name, trace, err)
		}
	}
	// Counters that read 0 on a healthy cluster.
	zeroWhenHealthy := map[string]bool{
		"router.failed": true, "router.retried": true, "router.saturated": true, "router.breaker_refused": true,
		"sched.shrunk": true, "server.retries": true, "server.flat_fallbacks": true, "server.rejected": true,
		"bench.failed_share": true,
	}
	for _, m := range perLayer {
		if !measured[m.Name] && !zeroWhenHealthy[m.Name] {
			t.Errorf("per-layer metric %s was measured by no workload", m.Name)
		}
	}

	// No daemon outlives the benchmark, and a clean run leaves no logs.
	left, _ := filepath.Glob(filepath.Join(p.outDir, fmt.Sprintf("run-*-%d", os.Getpid())))
	if len(left) > 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
	procs, _ := filepath.Glob("/proc/[0-9]*/exe")
	for _, exe := range procs {
		if target, err := os.Readlink(exe); err == nil && strings.HasPrefix(target, p.binDir+string(os.PathSeparator)) {
			t.Errorf("daemon still running: %s -> %s", exe, target)
		}
	}

	// The contract line of a single untraced run.
	r, w, _ := os.Pipe()
	stdout := os.Stdout
	os.Stdout = w
	code := runMain([]string{"--smoke", "--workload", wlLib, "--seed", "5", "--seconds", "1", "--trace", "0"})
	w.Close()
	os.Stdout = stdout
	captured, _ := io.ReadAll(r)
	if code != 0 {
		t.Fatalf("single run exited %d", code)
	}
	var line contractResult
	dec := json.NewDecoder(bytes.NewReader(lastLine(captured)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("last stdout line is not the result object: %v\n%s", err, lastLine(captured))
	}
	if !line.Correct || line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != len(endToEnd) {
		t.Errorf("contract line: %+v", line)
	}
	for _, m := range endToEnd {
		if got := line.Metrics[m.Name]; got.Unit != m.Unit || !(got.Value > 0) {
			t.Errorf("contract metric %s = %+v, want unit %s and a value > 0", m.Name, got, m.Unit)
		}
	}
}
