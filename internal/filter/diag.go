package filter

import (
	"sort"
	"sync"
)

// Diagnostics accumulates fault-containment events across one solve: ridge
// retries, non-finite rollbacks, quarantined batches, and the per-cycle
// RMS-change trajectory. It is safe for concurrent use — in the
// hierarchical organization, disjoint subtrees update in parallel and
// report into one shared sink. A nil *Diagnostics is valid everywhere and
// records nothing, which is the zero-cost path for callers that do not
// care.
type Diagnostics struct {
	mu          sync.Mutex
	ridge       int
	rollbacks   int
	quarantined map[quarKey]*QuarantineRecord
	rms         []float64

	// Per-cycle window, reset by BeginCycle and read by EndCycle: how
	// many scalar observations were applied and how many batches were
	// excluded, plus the least exclusion's identity for error reporting.
	cycle CycleStats
}

type quarKey struct {
	node  string
	batch int
}

// QuarantineRecord reports one batch that was excluded from one or more
// cycles after an unrecoverable numerical failure. A batch quarantined in
// cycle k is retried at cycle k+1's fresh linearization point; a
// persistently bad batch accumulates Cycles counts.
type QuarantineRecord struct {
	// Node is the hierarchy node owning the batch ("" in flat mode).
	Node string `json:"node,omitempty"`
	// Batch is the batch index within the node.
	Batch int `json:"batch"`
	// FirstCycle and LastCycle bracket the 1-based cycles in which the
	// batch was excluded; Cycles counts them.
	FirstCycle int `json:"first_cycle"`
	LastCycle  int `json:"last_cycle"`
	Cycles     int `json:"cycles"`
	// Reason is "indefinite" (Cholesky failed through every ridge retry)
	// or "non_finite" (committing the batch would have put NaN/Inf into
	// the state, so it was refused).
	Reason string `json:"reason"`
}

// Quarantine reasons.
const (
	ReasonIndefinite = "indefinite"
	ReasonNonFinite  = "non_finite"
)

// CycleStats summarizes one cycle's containment activity.
type CycleStats struct {
	// Applied is the number of scalar observations assimilated.
	Applied int
	// Quarantined is the number of batch exclusions (indefinite or
	// non-finite) during the cycle.
	Quarantined int
	// Reason, Node and Batch identify the cycle's exclusion of least
	// (Node, Batch), for error construction when the cycle made no progress
	// at all — the same one whichever subtree recorded first.
	Reason string
	Node   string
	Batch  int
}

// DiagSnapshot is the plain-data view of the diagnostics — what
// Solution.Diagnostics exposes and what the serving layer puts on the
// wire.
type DiagSnapshot struct {
	// RidgeRetries counts innovation-covariance factorizations that were
	// re-attempted with inflated measurement noise.
	RidgeRetries int `json:"ridge_retries,omitempty"`
	// Rollbacks counts batches refused because applying them would have
	// left non-finite values in the state (the state is kept as it was).
	Rollbacks int `json:"rollbacks,omitempty"`
	// Quarantined lists the batches excluded from at least one cycle,
	// ordered by (FirstCycle, Node, Batch).
	Quarantined []QuarantineRecord `json:"quarantined,omitempty"`
	// RMSTrajectory is the RMS coordinate change of every completed
	// cycle (Å), oldest first.
	RMSTrajectory []float64 `json:"rms_trajectory,omitempty"`
}

// AddRidgeRetry records one ridge escalation of a batch's measurement
// noise after a failed factorization.
func (d *Diagnostics) AddRidgeRetry() {
	if d == nil {
		return
	}
	d.mu.Lock()
	d.ridge++
	d.mu.Unlock()
}

// AddApplied records scalar observations successfully assimilated in the
// current cycle.
func (d *Diagnostics) AddApplied(m int) {
	if d == nil {
		return
	}
	d.mu.Lock()
	d.cycle.Applied += m
	d.mu.Unlock()
}

// AddQuarantine records the exclusion of a batch from the current cycle.
// A non_finite reason also counts a rollback (the batch's update was
// computed and then not committed).
func (d *Diagnostics) AddQuarantine(node string, batch, cycle int, reason string) {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if reason == ReasonNonFinite {
		d.rollbacks++
	}
	if c := &d.cycle; c.Quarantined == 0 || node < c.Node || node == c.Node && batch < c.Batch {
		c.Reason, c.Node, c.Batch = reason, node, batch
	}
	d.cycle.Quarantined++
	if d.quarantined == nil {
		d.quarantined = make(map[quarKey]*QuarantineRecord)
	}
	key := quarKey{node, batch}
	rec := d.quarantined[key]
	if rec == nil {
		rec = &QuarantineRecord{Node: node, Batch: batch, FirstCycle: cycle, Reason: reason}
		d.quarantined[key] = rec
	}
	rec.LastCycle = cycle
	rec.Cycles++
}

// BeginCycle opens a new per-cycle accounting window.
func (d *Diagnostics) BeginCycle() {
	if d == nil {
		return
	}
	d.mu.Lock()
	d.cycle = CycleStats{}
	d.mu.Unlock()
}

// EndCycle closes the window: it appends the cycle's RMS change to the
// trajectory and returns the cycle's containment stats, which the
// convergence driver (Control.Iterate) uses for the no-progress policy.
func (d *Diagnostics) EndCycle(rmsChange float64) CycleStats {
	if d == nil {
		return CycleStats{}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.rms = append(d.rms, rmsChange)
	return d.cycle
}

// RMSTrajectory returns a copy of the per-cycle RMS-change history.
func (d *Diagnostics) RMSTrajectory() []float64 {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]float64(nil), d.rms...)
}

// Snapshot returns the plain-data view. Safe to call at any point; the
// returned value shares nothing with the sink.
func (d *Diagnostics) Snapshot() *DiagSnapshot {
	if d == nil {
		return &DiagSnapshot{}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	snap := &DiagSnapshot{
		RidgeRetries:  d.ridge,
		Rollbacks:     d.rollbacks,
		RMSTrajectory: append([]float64(nil), d.rms...),
	}
	for _, rec := range d.quarantined {
		snap.Quarantined = append(snap.Quarantined, *rec)
	}
	sort.Slice(snap.Quarantined, func(i, j int) bool {
		a, b := snap.Quarantined[i], snap.Quarantined[j]
		if a.FirstCycle != b.FirstCycle {
			return a.FirstCycle < b.FirstCycle
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Batch < b.Batch
	})
	return snap
}
