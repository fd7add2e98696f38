package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// schemaVersion stamps every result document; bump it when a field
// changes meaning.
const schemaVersion = 1

// report is what one run of one workload measured; the workload child
// prints it as JSON for the parent.
type report struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Metrics holds every metric the run measured, by name; Samples the
	// count of samples behind each value.
	Metrics map[string]float64 `json:"metrics"`
	Samples map[string]int     `json:"samples"`
	// InputDigest is the sha256 over every input the run generated.
	InputDigest string `json:"input_digest"`
	// Notes describes the first few failed checks.
	Notes []string `json:"notes,omitempty"`
}

func newReport() *report {
	return &report{Metrics: map[string]float64{}, Samples: map[string]int{}}
}

func (r *report) set(name string, value float64, samples int) {
	r.Metrics[name] = value
	r.Samples[name] = samples
}

// failf counts one failed operation and keeps the first few reasons.
func (r *report) failf(format string, args ...any) {
	r.Failed++
	if len(r.Notes) < 8 {
		r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	}
}

// check counts one attempted operation, failed unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.failf(format, args...)
	}
}

// finish derives the metrics every run reports the same way.
func (r *report) finish() {
	r.set("bench.failed_share", ratio(float64(r.Failed), float64(r.Attempted)), r.Attempted)
	r.set("bench.input_digest", digestNumber(r.InputDigest), 1)
}

// contractResult is the object the driver reads from the last line of
// standard output.
type contractResult struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine selects every end-to-end metric (untraced) or every
// per-layer metric (traced); one the workload does not exercise reads 0.
func (r *report) contractLine(traced bool) contractResult {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	out := contractResult{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]contractMetric, len(specs))}
	for _, m := range specs {
		out.Metrics[m.Name] = contractMetric{Value: r.Metrics[m.Name], Unit: m.Unit}
	}
	return out
}

// hostInfo records where a result was measured; numbers from different
// hosts are not comparable.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	GitRev     string `json:"git_rev"`
	GitDirty   bool   `json:"git_dirty"`
}

func readHost(root string) hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
		f.Close()
	}
	// A checkout without git metadata (the driver's) leaves both empty.
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Dir = root
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	if rev, err := git("rev-parse", "HEAD"); err == nil {
		h.GitRev = rev
		status, _ := git("status", "--porcelain")
		h.GitDirty = status != ""
	}
	return h
}

// result is the versioned document shared by the untraced and the traced
// run.
type result struct {
	SchemaVersion int              `json:"schema_version"`
	Seed          int64            `json:"seed"`
	Seconds       float64          `json:"seconds"`
	Traced        bool             `json:"traced"`
	Smoke         bool             `json:"smoke,omitempty"`
	Host          hostInfo         `json:"host"`
	Workloads     []workloadResult `json:"workloads"`
}

type workloadResult struct {
	Name      string `json:"name"`
	Runs      int    `json:"runs"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// InputDigests holds one digest per run, in seed order.
	InputDigests []string                `json:"input_digests"`
	Notes        []string                `json:"notes,omitempty"`
	Metrics      map[string]metricResult `json:"metrics"`
}

// metricResult is one metric of one workload: Value is the median over
// the runs, Q1 and Q3 their quartiles, N the samples behind one run's
// value.
type metricResult struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound,omitempty"`
	N      int       `json:"n"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

func newResult(o options, root string) *result {
	return &result{SchemaVersion: schemaVersion, Seed: o.seed, Seconds: o.seconds,
		Traced: o.trace == 1, Smoke: o.smoke, Host: readHost(root)}
}

// summarize folds a workload's runs into medians and quartiles. An
// untraced document carries the end-to-end metrics; a traced one carries
// both lists, the end-to-end values for reference only.
func summarize(name string, reports []*report, traced bool) workloadResult {
	w := workloadResult{Name: name, Runs: len(reports), Metrics: map[string]metricResult{}}
	for _, r := range reports {
		w.Attempted += r.Attempted
		w.Failed += r.Failed
		w.InputDigests = append(w.InputDigests, r.InputDigest)
		w.Notes = append(w.Notes, r.Notes...)
	}
	specs := endToEnd
	if traced {
		specs = append(append([]metricSpec(nil), endToEnd...), perLayer...)
	}
	for _, m := range specs {
		values := make([]float64, len(reports))
		for i, r := range reports {
			values[i] = r.Metrics[m.Name]
		}
		q1, q3 := quartiles(values)
		w.Metrics[m.Name] = metricResult{Value: median(values), Unit: m.Unit, Better: m.Better, Bound: m.Bound,
			N: reports[len(reports)-1].Samples[m.Name], Q1: q1, Q3: q3, Values: values}
	}
	return w
}

func (r *result) correct() bool {
	for _, w := range r.Workloads {
		if w.Failed > 0 {
			return false
		}
	}
	return true
}

// print lists every metric by name with its unit, sample count, bound and
// run-to-run spread.
func (r *result) print(out io.Writer) {
	for _, w := range r.Workloads {
		fmt.Fprintf(out, "%s: %d run(s), %d attempted, %d failed\n", w.Name, w.Runs, w.Attempted, w.Failed)
		for _, note := range w.Notes {
			fmt.Fprintf(out, "  ! %s\n", note)
		}
		names := make([]string, 0, len(w.Metrics))
		for name := range w.Metrics {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool {
			bi, bj := w.Metrics[names[i]].Bound > 0, w.Metrics[names[j]].Bound > 0
			if bi != bj {
				return bi // end-to-end first
			}
			return names[i] < names[j]
		})
		for _, name := range names {
			m := w.Metrics[name]
			line := fmt.Sprintf("  %-38s %14.6g %-8s n=%-6d", name, m.Value, m.Unit, m.N)
			if m.Bound > 0 {
				line += fmt.Sprintf(" %s is better, bound %.0f%%", m.Better, m.Bound*100)
			}
			if w.Runs > 1 {
				line += fmt.Sprintf(" spread %.1f%%", spread(m.Values)*100)
			}
			if name == "job_tail_ms" {
				line += fmt.Sprintf(" (p%g; n supports p%g)", tailPercent[w.Name], tailPercentile(m.N))
			}
			fmt.Fprintln(out, line)
		}
	}
}

func (r *result) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing result: %w", err)
	}
	return nil
}

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.SchemaVersion != schemaVersion {
		return nil, fmt.Errorf("%s: schema version %d, this benchmark reads %d", path, r.SchemaVersion, schemaVersion)
	}
	return &r, nil
}
