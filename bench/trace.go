package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary. Spans of one request
// share Job; Parent is the ID of the span that caused this one (0 for a
// root). All spans are recorded from the benchmark process, around calls
// into a layer's public functions and endpoints, or reconstructed from
// the timestamps a daemon reports (JobStatus) — the programs themselves
// carry no spans yet.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	// StartNs and EndNs are Unix nanoseconds.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
}

// tracer keeps spans in memory until the workload ends. A nil *tracer
// discards everything, so the untraced run executes the same code minus
// the appends.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records a finished span and returns its ID for children to name.
func (t *tracer) add(parent int, name, job string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Job: job,
		StartNs: start.UnixNano(), EndNs: end.UnixNano()})
	return id
}

// selfTimes returns, per span name, the summed self time in seconds: each
// span's duration minus the part of it its direct children cover
// (overlapping children are merged first, and clipped to the parent).
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, cursor := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, cursor), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[s.Name] += float64(s.EndNs-s.StartNs-covered) / 1e9
	}
	return out
}

// traceHeader is the first line of trace-<workload>.jsonl; one span per line
// follows.
type traceHeader struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    int    `json:"spans"`
	// SelfSeconds is the per-layer self time summed over the run.
	SelfSeconds map[string]float64 `json:"self_seconds"`
	// Counters holds the deltas of the daemons' own /metrics counters over
	// the measured window (the same boundaries the spans were taken at).
	Counters map[string]float64 `json:"counters"`
}

// write stores the header and every span as JSON lines.
func (t *tracer) write(path, workload string, seed int64, counters map[string]float64) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(traceHeader{Workload: workload, Seed: seed, Spans: len(t.spans),
		SelfSeconds: selfTimes(t.spans), Counters: counters})
	for i := 0; err == nil && i < len(t.spans); i++ {
		err = enc.Encode(t.spans[i])
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	return nil
}
