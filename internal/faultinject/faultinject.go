// Package faultinject is the fault-injection harness: a process-global
// hook registry that tests install to force numerical failures (an
// indefinite innovation covariance, a NaN in a batch's update) at a chosen
// node/batch/cycle, or to crash a serving worker mid-job. In production
// nothing is installed and every injection site reduces to a single
// atomic nil check, so the hooks cost nothing on the hot path.
//
// Hooks are global to the process; tests that install them must not run
// in parallel with each other and should clear them with Reset (typically
// via t.Cleanup). Hook functions may be called concurrently from solver
// goroutines and must be race-free.
package faultinject

import "sync/atomic"

// Site identifies a solver-level injection point: which solve (by its
// fault tag, normally the problem name), which hierarchy node, which
// batch, and which constraint-application cycle is asking.
type Site struct {
	// Tag labels the solve; the estimator sets it to the problem name, so
	// a hook can poison one job while concurrent jobs stay healthy.
	Tag string
	// Node is the hierarchy node name ("" in flat mode).
	Node string
	// Batch is the batch index within the node.
	Batch int
	// Cycle is the 1-based constraint-application cycle.
	Cycle int
}

// Hooks is one installed set of fault injectors. Nil fields are inactive.
type Hooks struct {
	// Cholesky, when it returns true, forces the innovation-covariance
	// factorization at the site to fail as if S were indefinite —
	// exercising the ridge-retry and quarantine paths.
	Cholesky func(Site) bool
	// Poison, when it returns true, injects a NaN into the pending update
	// of the batch at the site (dx[0]) after it has been computed and
	// before the guard verifies it — exercising the non-finite refusal
	// path: the batch must be quarantined with the state untouched.
	Poison func(Site) bool
	// BeforeAttempt is called by the serving layer immediately before
	// each solve attempt of a job, with the problem's fault tag and the
	// 0-based attempt number. A hook that panics simulates a worker
	// crash; a hook that flips shared state can make a failure transient
	// (fail attempt 0, heal attempt 1).
	BeforeAttempt func(tag string, attempt int)
}

var active atomic.Pointer[Hooks]

// Installed returns the active hook set, or nil when fault injection is
// off — the production state, one atomic load.
func Installed() *Hooks { return active.Load() }

// Set installs a hook set, replacing any previous one.
func Set(h *Hooks) { active.Store(h) }

// Reset uninstalls all hooks.
func Reset() { active.Store(nil) }
