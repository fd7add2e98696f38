package filter

import (
	"context"
	"errors"
	"fmt"
)

// The failure taxonomy of the estimation pipeline: every way a solve can
// fail numerically maps onto one sentinel (matched with errors.Is) plus a
// typed error value carrying the failure's context — which node and batch
// produced an indefinite innovation covariance, which cycle a NaN appeared
// in, the RMS trajectory the divergence watchdog observed. The serving
// layer asks Transient whether an automatic retry has a chance, and Code
// for the machine-readable cause it puts on the wire.
var (
	// ErrIndefinite: an innovation covariance S = H·C·Hᵀ + R failed its
	// Cholesky factorization even after bounded ridge escalation of R.
	ErrIndefinite = errors.New("solver: innovation covariance not positive definite")
	// ErrDiverged: the per-cycle RMS coordinate change grew for enough
	// consecutive cycles that the iteration is moving away from any fixed
	// point.
	ErrDiverged = errors.New("solver: iteration diverged")
	// ErrNonFinite: a NaN or Inf appeared in the state estimate or its
	// covariance and could not be contained by rollback.
	ErrNonFinite = errors.New("solver: non-finite state")
)

// Indefinite is the typed form of ErrIndefinite: a batch whose innovation
// covariance stayed non-positive-definite through every ridge retry.
type Indefinite struct {
	Node    string // hierarchy node name ("" in flat mode)
	Batch   int    // batch index within the node
	Dim     int    // scalar dimension of the failing system (0 if unknown)
	Retries int    // ridge escalations attempted before giving up
	Err     error  // underlying factorization error, if any
}

func (e *Indefinite) Error() string {
	msg := "solver: innovation covariance not positive definite"
	if e.Node != "" {
		msg += fmt.Sprintf(" at node %q", e.Node)
	}
	msg += fmt.Sprintf(" (batch %d", e.Batch)
	if e.Dim > 0 {
		msg += fmt.Sprintf(", m=%d", e.Dim)
	}
	if e.Retries > 0 {
		msg += fmt.Sprintf(", after %d ridge retries", e.Retries)
	}
	return msg + ")"
}

// Is matches the ErrIndefinite sentinel.
func (e *Indefinite) Is(target error) bool { return target == ErrIndefinite }

// Unwrap exposes the underlying factorization error.
func (e *Indefinite) Unwrap() error { return e.Err }

// NonFinite is the typed form of ErrNonFinite: a NaN/Inf contaminated the
// state and rollback could not restore forward progress.
type NonFinite struct {
	Node  string // hierarchy node name ("" in flat mode)
	Batch int    // batch whose application produced the non-finite values
	Cycle int    // 1-based constraint-application cycle
}

func (e *NonFinite) Error() string {
	msg := "solver: non-finite state"
	if e.Node != "" {
		msg += fmt.Sprintf(" at node %q", e.Node)
	}
	return msg + fmt.Sprintf(" (batch %d, cycle %d)", e.Batch, e.Cycle)
}

// Is matches the ErrNonFinite sentinel.
func (e *NonFinite) Is(target error) bool { return target == ErrNonFinite }

// Diverged is the typed form of ErrDiverged, carrying the evidence: the
// full per-cycle RMS-change trajectory the watchdog observed, oldest
// first. The final Grew entries are the consecutive increases that
// tripped it.
type Diverged struct {
	Cycles  int       // cycles completed when the watchdog fired
	Grew    int       // consecutive cycles of growing RMS change
	History []float64 // per-cycle RMS coordinate change (Å), oldest first
}

func (e *Diverged) Error() string {
	msg := fmt.Sprintf("solver: iteration diverged (RMS change grew for %d consecutive cycles, %d cycles total", e.Grew, e.Cycles)
	if n := len(e.History); n > 0 {
		msg += fmt.Sprintf(", last RMS change %.3g Å", e.History[n-1])
	}
	return msg + ")"
}

// Is matches the ErrDiverged sentinel.
func (e *Diverged) Is(target error) bool { return target == ErrDiverged }

// Transient reports whether retrying the whole solve — with a different
// starting perturbation, or degraded from the hierarchical to the flat
// organization — has a reasonable chance of succeeding. Numerical
// failures are transient (they depend on the trajectory through state
// space); cancellation, deadline expiry, and validation errors are not.
func Transient(err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, ErrIndefinite), errors.Is(err, ErrNonFinite), errors.Is(err, ErrDiverged):
		return true
	}
	return false
}

// Wire codes for the failure classes, shared by the job API and the
// command-line tools. They extend the request-level codes of package
// encode with solver-level causes.
const (
	CodeDiverged    = "diverged"
	CodeIndefinite  = "indefinite"
	CodeNonFinite   = "non_finite"
	CodeCanceled    = "canceled"
	CodeTimeout     = "timeout"
	CodeSolverError = "solver_error"
)

// Code maps a solve error onto its machine-readable wire code. Context
// cancellation and deadline expiry are recognized directly so callers can
// pass a solver error through unchanged.
func Code(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrDiverged):
		return CodeDiverged
	case errors.Is(err, ErrIndefinite):
		return CodeIndefinite
	case errors.Is(err, ErrNonFinite):
		return CodeNonFinite
	case errors.Is(err, context.Canceled):
		return CodeCanceled
	case errors.Is(err, context.DeadlineExceeded):
		return CodeTimeout
	}
	return CodeSolverError
}
