// Command bench is the repository's benchmark ladder: four workloads driven
// against the real programs, end-to-end metrics with regression bounds, and
// a traced run that decomposes the same workloads layer by layer. See
// README.md in this directory for the tables and the reasoning.
//
//	go run ./bench --workload serve_warm_tiny --seed 7 --seconds 20 --trace 0
//	go run ./bench --runs 10 --out bench/out/result.json      # all workloads
//	go run ./bench --trace 1 --out bench/out/traced.json      # per-layer run
//	go run ./bench compare old.json new.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			os.Exit(compareMain(args[1:]))
		case "child":
			os.Exit(childMain(args[1:]))
		}
	}
	os.Exit(runMain(args))
}

// options are the flags shared by the benchmark and its workload children.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	smoke    bool
}

func (o *options) register(fs *flag.FlagSet) {
	fs.StringVar(&o.workload, "workload", "all", "workload to run: one of the four names, or all")
	fs.Int64Var(&o.seed, "seed", 1996, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "measuring window of the time-boxed workloads")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny problem sizes and windows, for the test suite")
}

func (o *options) childArgs() []string {
	args := []string{"--workload", o.workload, "--seed", fmt.Sprint(o.seed),
		"--seconds", fmt.Sprint(o.seconds), "--trace", fmt.Sprint(o.trace)}
	if o.smoke {
		args = append(args, "--smoke")
	}
	return args
}

// paths locates the benchmark inside the checkout.
type paths struct {
	root   string // repository root (holds go.mod)
	outDir string // bench/out: binaries, traces, results, logs of failed runs
	binDir string
}

func locate() (paths, error) {
	dir, err := os.Getwd()
	if err != nil {
		return paths{}, err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(data), "module phmse\n") {
			out := filepath.Join(dir, "bench", "out")
			return paths{root: dir, outDir: out, binDir: filepath.Join(out, "bin")}, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return paths{}, errors.New("not inside the phmse module: no go.mod found")
		}
		dir = parent
	}
}

// buildPrograms compiles the two daemons the serving workloads drive and
// returns the seconds it took (bench.build_s; outside setup_s so the state
// of the Go build cache cannot pollute a set-up time).
func buildPrograms(ctx context.Context, p paths) (float64, error) {
	if err := os.MkdirAll(p.binDir, 0o755); err != nil {
		return 0, err
	}
	t0 := time.Now()
	for _, prog := range []string{"phmsed", "phmse-router"} {
		cmd := exec.CommandContext(ctx, "go", "build", "-o", filepath.Join(p.binDir, prog), "./cmd/"+prog)
		cmd.Dir = p.root
		if out, err := cmd.CombinedOutput(); err != nil {
			return 0, fmt.Errorf("building %s: %v\n%s", prog, err, out)
		}
	}
	return time.Since(t0).Seconds(), nil
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o options
	o.register(fs)
	runs := fs.Int("runs", 1, "runs per workload, on consecutive seeds; medians and quartiles are taken over them")
	outPath := fs.String("out", "", "write the versioned result document here")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *runs < 1 || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) ||
		(o.workload != "all" && !isWorkload(o.workload)) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments; workloads are", workloadNames(), "or all")
		fs.Usage()
		return 2
	}
	p, err := locate()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	buildS, err := buildPrograms(ctx, p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	names := workloadNames()
	if o.workload != "all" {
		names = []string{o.workload}
	}
	res := newResult(o, p.root)
	cool := keepHot()
	defer cool()
	var last *report
	for _, name := range names {
		var reports []*report
		for r := 0; r < *runs; r++ {
			co := o
			co.workload, co.seed = name, o.seed+int64(r)
			rep, err := runChild(ctx, p, co)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", name, co.seed, err)
				return 1
			}
			rep.set("bench.build_s", buildS, 1)
			fmt.Fprintf(os.Stderr, "bench: %s seed %d: %d/%d ok, job_p50_ms %.6g, jobs_per_s %.6g\n", name, co.seed,
				rep.Attempted-rep.Failed, rep.Attempted, rep.Metrics["job_p50_ms"], rep.Metrics["jobs_per_s"])
			reports = append(reports, rep)
			last = rep
		}
		res.Workloads = append(res.Workloads, summarize(name, reports, o.trace == 1))
	}
	res.print(os.Stdout)
	if *outPath != "" {
		if err := res.write(*outPath); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if len(names) == 1 && *runs == 1 {
		// The driver's contract: the last line of standard output is the
		// run's result object.
		line, err := json.Marshal(last.contractLine(o.trace == 1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(line))
		return 0
	}
	if !res.correct() {
		return 1
	}
	return 0
}

// runChild runs one workload in a re-exec'd child of the benchmark, so
// heap state and peak memory do not leak between workloads, and afterwards
// reaps by saved PID whatever the child left running.
func runChild(ctx context.Context, p paths, o options) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	scratch := filepath.Join(p.outDir, fmt.Sprintf("run-%s-%d-%d", o.workload, o.seed, os.Getpid()))
	args := append([]string{"child", "--scratch", scratch}, o.childArgs()...)
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Dir = p.root
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()

	killed, reapErr := reapByPidfile(filepath.Join(scratch, "pids"), p.binDir)
	if reapErr != nil {
		return nil, fmt.Errorf("reaping daemons: %w", reapErr)
	}
	if runErr != nil {
		return nil, fmt.Errorf("workload child failed (daemon logs kept in %s): %w", scratch, runErr)
	}
	if len(killed) > 0 {
		return nil, fmt.Errorf("daemons %v outlived the workload (logs kept in %s)", killed, scratch)
	}
	var rep report
	if err := json.Unmarshal(lastLine(out), &rep); err != nil {
		return nil, fmt.Errorf("decoding the child's report: %w", err)
	}
	if rep.Failed == 0 {
		if err := os.RemoveAll(scratch); err != nil {
			return nil, err
		}
	} else {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed; daemon logs kept in %s\n", o.workload, rep.Failed, rep.Attempted, scratch)
	}
	return &rep, nil
}

func lastLine(out []byte) []byte {
	s := strings.TrimRight(string(out), "\n")
	return []byte(s[strings.LastIndexByte(s, '\n')+1:])
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// env is what a workload runs in.
type env struct {
	options
	traced     bool
	binDir     string
	portOffset int
	sup        *supervisor
	tr         *tracer // nil in an untraced run
	// counters collects the counter deltas written next to the spans.
	counters map[string]float64
}

// setups is how often a workload repeats its timed set-up: n times, once
// in a smoke run.
func (e *env) setups(n int) int {
	if e.smoke {
		return 1
	}
	return n
}

// reps is how often a traced run repeats a per-layer measurement: n times,
// a tenth of that (at least twice) in a smoke run.
func (e *env) reps(n int) int {
	if e.smoke {
		return max(2, n/10)
	}
	return n
}

var workloadFuncs = map[string]func(context.Context, *env) (*report, error){
	wlLib:       runLib,
	wlWarmTiny:  runWarmTiny,
	wlColdBurst: runColdBurst,
	wlRebalance: runRebalance,
}

// childMain runs one workload and prints its report as one JSON line.
func childMain(args []string) int {
	fs := flag.NewFlagSet("bench child", flag.ContinueOnError)
	var o options
	o.register(fs)
	scratch := fs.String("scratch", "", "scratch directory for the pidfile and daemon logs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloadFuncs[o.workload]
	if !ok || *scratch == "" {
		fmt.Fprintln(os.Stderr, "bench child: bad arguments")
		return 2
	}
	p, err := locate()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	sup, err := newSupervisor(*scratch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	e := &env{options: o, traced: o.trace == 1, binDir: p.binDir, sup: sup}
	if o.smoke {
		e.portOffset = 40 // a smoke test may run beside a real benchmark
	}
	if e.traced {
		e.tr = &tracer{}
	}

	// Every exit path ends the daemons: normal return and panics on this
	// goroutine through the deferred stopAll, signals through killAll. A
	// panic elsewhere is covered by the parent's pidfile sweep.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		sup.killAll()
	}()
	defer sup.stopAll()

	rep, err := run(ctx, e)
	sup.stopAll()
	if err == nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", o.workload, err)
		return 1
	}
	rep.Workload = o.workload
	rep.Seed = o.seed
	rep.finish()
	if e.traced {
		if err := e.tr.write(filepath.Join(p.outDir, "trace-"+o.workload+".jsonl"), o.workload, o.seed, e.counters); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
