package encode

// This file holds the v1 API wire types shared by the server, the typed Go
// client, and the command-line tools: job lifecycle states and status
// snapshots, the paginated job listing, and the structured error envelope
// every endpoint returns on failure. They live here, next to the problem
// and solution formats, so the whole wire surface of phmsed is defined in
// one package with no dependency on the serving internals.

import "time"

// JobState is the lifecycle state of a submitted solve.
// A job moves queued → running → one of the three terminal states; a
// queued job can also move directly to cancelled.
type JobState string

// The job lifecycle states.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether the state is one a job can never leave.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// Valid reports whether s is one of the five lifecycle states.
func (s JobState) Valid() bool {
	switch s {
	case JobQueued, JobRunning, JobDone, JobFailed, JobCancelled:
		return true
	}
	return false
}

// MaxStatusWait caps the ?wait= long-poll of GET /v1/jobs/{id}: the daemon
// clips a longer wait to it, and the client asks for at most this much per
// round, so a waiter that outlives it simply asks again.
const MaxStatusWait = 30 * time.Second

// JobStatus is a point-in-time snapshot of a job, as reported by
// GET /v1/jobs/{id} and in the listing at GET /v1/jobs.
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	// Problem identification.
	Problem     string `json:"problem"`
	Atoms       int    `json:"atoms"`
	Constraints int    `json:"constraints"`
	// Cycle-level progress (meaningful once running).
	Cycle     int     `json:"cycle"`
	RMSChange float64 `json:"rms_change"`
	// PlanCacheHit reports whether construction reused cached planning
	// artifacts for this topology.
	PlanCacheHit bool   `json:"plan_cache_hit"`
	Error        string `json:"error,omitempty"`
	// ErrorCode classifies a failed job's error machine-readably:
	// "diverged", "indefinite", "non_finite", "canceled", "timeout",
	// "internal_error" (a recovered worker panic), or "solver_error".
	ErrorCode string `json:"error_code,omitempty"`
	// Retries counts the automatic re-solve attempts the server made after
	// transient failures (0 when the first attempt decided the job).
	Retries int `json:"retries,omitempty"`
	// FlatFallback reports that the hierarchical solve failed numerically
	// and the server fell back to one flat-organization attempt.
	FlatFallback bool `json:"flat_fallback,omitempty"`
	// WarmStartFrom names the job whose retained posterior seeded this
	// solve, when the submission carried a warm_start reference.
	WarmStartFrom string `json:"warm_start_from,omitempty"`
	// Shard is the instance id of the daemon that owns the job — the same
	// identity carried by the X-Phmsed-Instance response header, promoted
	// into the body so listings and stored statuses keep their attribution
	// without header plumbing. Stable v1 API; empty only when the daemon
	// runs without -instance.
	Shard string `json:"shard,omitempty"`
	// PosteriorKept reports whether the job's posterior was admitted to the
	// server's posterior store on completion (keep_posterior submissions
	// only). A kept posterior may still be evicted later under memory
	// pressure, in which case GET /v1/jobs/{id}/posterior returns no_result.
	PosteriorKept bool   `json:"posterior_kept,omitempty"`
	SubmittedAt   string `json:"submitted_at,omitempty"`
	StartedAt     string `json:"started_at,omitempty"`
	FinishedAt    string `json:"finished_at,omitempty"`
}

// JobList is the response of GET /v1/jobs: submission-ordered status
// summaries. Records are pruned once the server's retention bound
// (1 024 records) is exceeded, oldest terminal jobs first, so the
// listing is a window over recent work, not a permanent ledger.
type JobList struct {
	Jobs []JobStatus `json:"jobs"`
	// NextAfter, when non-empty, is the cursor for the next page: pass it
	// as ?after= to continue the listing where this page stopped.
	NextAfter string `json:"next_after,omitempty"`
}

// The machine-readable error codes of the v1 API error envelope.
const (
	// CodeQueueFull: the bounded job queue rejected the submission (HTTP
	// 429, with Retry-After).
	CodeQueueFull = "queue_full"
	// CodeDraining: the server is shutting down and not accepting work
	// (HTTP 503).
	CodeDraining = "draining"
	// CodeNotFound: the referenced job id is unknown (HTTP 404).
	CodeNotFound = "not_found"
	// CodeNoResult: the job exists but has no result or retained posterior
	// to serve — not finished, failed, cancelled, not kept, or evicted
	// (HTTP 409).
	CodeNoResult = "no_result"
	// CodeBadRequest: the request body or query parameters failed
	// validation (HTTP 400).
	CodeBadRequest = "bad_request"
	// CodeTopologyMismatch: a warm_start reference names a posterior whose
	// molecule does not match the submitted problem (HTTP 409).
	CodeTopologyMismatch = "topology_mismatch"
	// CodeNoShard: the routing tier has no healthy shard able to serve the
	// request (HTTP 503). Emitted by phmse-router, never by phmsed itself.
	CodeNoShard = "no_shard"
	// CodeInternal: an unexpected server-side failure (HTTP 5xx).
	CodeInternal = "internal"
	// CodeInternalError: a worker panic was recovered while solving the
	// job; the job fails but the daemon keeps serving. Reported in
	// JobStatus.ErrorCode, not as an HTTP envelope code.
	CodeInternalError = "internal_error"
	// CodeUnauthorized: the request lacks the bearer token an admin or
	// transfer endpoint requires (HTTP 401).
	CodeUnauthorized = "unauthorized"
	// CodeConflict: the requested admin change is already in effect — e.g.
	// adding a shard that is an active member — or a conditional posterior
	// delete found a newer generation (HTTP 409).
	CodeConflict = "conflict"
	// CodePosteriorBudget: a posterior import was refused because it does
	// not fit the destination store's byte budget (HTTP 507).
	CodePosteriorBudget = "posterior_budget"
)

// HealthStatus is the body of GET /healthz and GET /readyz. The liveness
// probe reports only Status (plus the instance identity); the readiness
// probe adds queue occupancy so a balancer or router can see saturation
// coming.
type HealthStatus struct {
	// Status is "ok", "draining", or (readyz only) "saturated".
	Status string `json:"status"`
	// InstanceID identifies the daemon behind the response when it was
	// started with an instance identity (-instance) — the routing tier
	// learns its shard table from this field.
	InstanceID string `json:"instance_id,omitempty"`
	// QueueDepth and QueueCapacity report job-queue occupancy (readyz
	// only; omitted when zero).
	QueueDepth    int `json:"queue_depth,omitempty"`
	QueueCapacity int `json:"queue_capacity,omitempty"`
	// Running counts jobs currently executing (readyz only) — together
	// with QueueDepth it is the in-flight signal a drain waits on.
	Running int `json:"running,omitempty"`
}

// ErrorBody is the payload of the v1 error envelope.
type ErrorBody struct {
	// Code is one of the Code* constants.
	Code    string `json:"code"`
	Message string `json:"message"`
	// State carries the job's lifecycle state where it explains the error
	// (e.g. no_result for a cancelled job).
	State JobState `json:"state,omitempty"`
}

// ErrorEnvelope is the JSON body every v1 endpoint returns on failure:
//
//	{"error": {"code": "queue_full", "message": "...", "state": "..."}}
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}
