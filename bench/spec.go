package main

// The benchmark's declaration: workloads, end-to-end metrics with their
// regression bounds, and per-layer metrics. BENCHMARK.json at the repository
// root states the same thing for the driver; TestBenchmarkJSONMatchesSpec
// keeps the two from drifting.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. Per-layer
	// metrics have none.
	Bound float64 `json:"bound,omitempty"`
}

const (
	wlLib       = "lib_ribo30s_cold"
	wlWarmTiny  = "serve_warm_tiny"
	wlColdBurst = "serve_cold_burst"
	wlRebalance = "cluster_rebalance"

	lower  = "lower"
	higher = "higher"

	// runSeconds is the measuring window the driver passes as --seconds.
	runSeconds = 20
)

var workloads = []workloadSpec{
	{wlLib, "In-process ribo30S solve (866 atoms, 6850 scalars, Procs 2): mat/filter kernels do ~all the work (m-m ~93%), serving layers none; a router or encode change must not move it."},
	{wlWarmTiny, "1 router + 2 shards, warm starts of helix-1bp: ~3 ms of solver in a ~17 ms job, so client/encode/router/server/sched overhead dominates; kernel changes must show nothing."},
	{wlColdBurst, "Same cluster, lockstep rounds of 12 cold helix solves in two bursts of 6: solver-bound through the stack on small nodes (m-m <70%), queues form behind 1-proc shards; router share must stay ~0."},
	{wlRebalance, "2 gossiping routers + 3 shards, 48 retained posteriors: add-shard, repair, relocated warm start, drain-remove; the control-plane writes beside the serve workloads' reads."},
}

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them; a "job" is the workload's unit of work — one Solve
// call (lib), one submit→result round trip (serve), one
// add→repair→warm-start→drain-remove pass (cluster). job_tail_ms is the
// highest percentile the workload's sample count supports with ten
// samples beyond it (tailPercent).
//
// The bounds are the widest the driver allows. Back-to-back runs of one
// commit on the two-vCPU virtual machines this runs on differ by up to
// 16 % in their medians (shared memory system, phases of minutes; see
// README.md), and a bound inside the noise would reject changes at random.
var endToEnd = []metricSpec{
	{"setup_s", "s", lower, 0.25},
	{"jobs_per_s", "1/s", higher, 0.25},
	{"job_p50_ms", "ms", lower, 0.25},
	{"job_tail_ms", "ms", lower, 0.25},
}

// tailPercent is the percentile job_tail_ms reports on each workload: p95
// of ≈2 000 warm jobs (100 beyond), p90 of ≈170 cold jobs (17 beyond); one
// library solve and ≈30 rebalance passes support no percentile above the
// median.
var tailPercent = map[string]float64{wlLib: 50, wlWarmTiny: 95, wlColdBurst: 90, wlRebalance: 50}

// perLayer lists the traced run's metrics, named <module>.<metric>. A
// metric a workload does not exercise reads 0 there.
var perLayer = []metricSpec{
	// Paper's operation classes (Tables 3–6): seconds, share of the class
	// sum, achieved rate.
	{"mat.mm_s", "s", lower, 0}, {"mat.sys_s", "s", lower, 0}, {"mat.chol_s", "s", lower, 0},
	{"mat.mv_s", "s", lower, 0}, {"mat.vec_s", "s", lower, 0}, {"sparse.ds_s", "s", lower, 0},
	{"mat.mm_s_share", "ratio", lower, 0}, {"mat.sys_s_share", "ratio", lower, 0}, {"mat.chol_s_share", "ratio", lower, 0},
	{"mat.mv_s_share", "ratio", lower, 0}, {"mat.vec_s_share", "ratio", lower, 0}, {"sparse.ds_s_share", "ratio", lower, 0},
	{"mat.mm_gflops", "Gflop/s", higher, 0}, {"mat.sys_gflops", "Gflop/s", higher, 0}, {"sparse.ds_gflops", "Gflop/s", higher, 0},
	{"mat.mm_ops_per_byte", "flop/B", higher, 0},
	// Root-node kernels timed directly.
	{"filter.apply_batch_n2598_m16_ms", "ms", lower, 0},
	{"mat.syr2k_n2598_m16_ms", "ms", lower, 0},
	{"sparse.dense_mult_sym_n2598_m16_ms", "ms", lower, 0},
	// Solver driver.
	{"core.solve_s", "s", lower, 0},
	{"hier.cycle_s", "s", lower, 0}, {"hier.cycles", "count", lower, 0},
	{"core.plan_build_ms", "ms", lower, 0}, {"core.plan_reuse_ms", "ms", lower, 0},
	{"core.allocs_per_solve", "count", lower, 0}, {"core.alloc_mb_per_solve", "MB", lower, 0},
	{"pool.hit_rate", "ratio", higher, 0},
	{"par.scaling_eff_p2", "ratio", higher, 0},
	{"hier.nonkernel_share", "ratio", lower, 0},
	{"core.warm_solve_ms", "ms", lower, 0},
	// Client.
	{"client.submit_ms", "ms", lower, 0}, {"client.wait_ms", "ms", lower, 0}, {"client.result_ms", "ms", lower, 0},
	{"client.poll_lag_ms", "ms", lower, 0}, {"client.polls_per_job", "count", lower, 0},
	// Wire format, replayed in-process on the bodies the workload sent.
	{"encode.write_problem_ms", "ms", lower, 0}, {"encode.read_solve_request_ms", "ms", lower, 0},
	{"encode.solve_routing_ms", "ms", lower, 0}, {"encode.topology_hash_ms", "ms", lower, 0},
	{"encode.structure_hash_ms", "ms", lower, 0}, {"encode.solution_doc_ms", "ms", lower, 0},
	{"pdb.write_ms", "ms", lower, 0}, {"encode.request_kb", "KB", lower, 0},
	// Router data plane: via-router minus direct-to-owner.
	{"router.submit_overhead_ms", "ms", lower, 0}, {"router.status_overhead_ms", "ms", lower, 0},
	{"router.result_overhead_ms", "ms", lower, 0}, {"router.cpu_ms_per_job", "ms", lower, 0},
	{"router.forwarded", "count", higher, 0}, {"router.failed", "count", lower, 0}, {"router.retried", "count", lower, 0},
	{"router.saturated", "count", lower, 0}, {"router.breaker_refused", "count", lower, 0},
	// Shard: admission and run.
	{"server.submit_direct_ms", "ms", lower, 0}, {"server.result_direct_ms", "ms", lower, 0},
	{"sched.queue_wait_ms", "ms", lower, 0}, {"sched.queue_wait_p95_ms", "ms", lower, 0},
	{"sched.grants", "count", higher, 0}, {"sched.coalesced", "count", higher, 0}, {"sched.shrunk", "count", lower, 0},
	{"server.run_ms", "ms", lower, 0}, {"server.plan_cache_hit_rate", "ratio", higher, 0},
	{"server.nonkernel_share", "ratio", lower, 0}, {"server.cpu_ms_per_job", "ms", lower, 0},
	{"server.retries", "count", lower, 0}, {"server.flat_fallbacks", "count", lower, 0}, {"server.rejected", "count", lower, 0},
	// Router control plane.
	{"router.add_shard_ms", "ms", lower, 0}, {"router.drain_remove_ms", "ms", lower, 0},
	{"router.migrate_ms_per_posterior", "ms", lower, 0}, {"router.migrated_per_pass", "count", lower, 0},
	{"router.repair_idle_ms", "ms", lower, 0}, {"router.repair_scanned", "count", lower, 0},
	{"router.relocate_warm_ms", "ms", lower, 0}, {"router.transfer_mb_per_s", "MB/s", higher, 0},
	// Posterior transfer endpoints and their codecs.
	{"server.posterior_export_ms", "ms", lower, 0}, {"server.posterior_import_ms", "ms", lower, 0},
	{"server.posterior_index_ms", "ms", lower, 0}, {"server.posterior_kb", "KB", lower, 0},
	{"encode.posterior_decode_ms", "ms", lower, 0}, {"encode.changed_arcs_us", "us", lower, 0},
	// Membership gossip.
	{"cluster.gossip_converge_ms", "ms", lower, 0}, {"cluster.gossip_rounds", "count", lower, 0},
	{"cluster.docs_adopted", "count", lower, 0},
	// The benchmark itself.
	{"bench.build_s", "s", lower, 0}, {"bench.trace_overhead_share", "ratio", lower, 0},
	{"bench.accounted_share", "ratio", higher, 0}, {"bench.input_digest", "count", higher, 0},
	{"bench.failed_share", "ratio", lower, 0}, {"bench.rss_peak_mb", "MB", lower, 0},
}

// benchmarkFile is the shape of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func declaredBenchmark() benchmarkFile {
	return benchmarkFile{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

func isWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
