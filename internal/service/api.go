package service

import (
	"time"

	"galactos/internal/exec"
	"galactos/internal/perfstat"
)

// The wire types of the galactosd job API. The job *submission* schema is
// not defined here at all: it is galactos.Request serialized as JSON — the
// facade's one canonical entrypoint and the service's wire protocol are the
// same design. This file only defines what the service reports back.

// State is a job's lifecycle state. Transitions are linear:
// queued -> running -> one of done / failed / cancelled (a queued job may
// also go straight to done on a cache hit, or to cancelled before a worker
// picks it up).
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobStatus is the JSON status of one job.
type JobStatus struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	Label string `json:"label,omitempty"`
	// Key is the result-cache key: the catalog content hash and the
	// normalized config fingerprint, joined.
	Key string `json:"key"`
	// CacheHit marks a job served from the result cache without running
	// the engine.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Error carries the failure (or cancellation) reason for terminal
	// non-done states.
	Error string `json:"error,omitempty"`

	QueuedAt   time.Time `json:"queued_at"`
	StartedAt  time.Time `json:"started_at,omitzero"`
	FinishedAt time.Time `json:"finished_at,omitzero"`
	// ElapsedSec is the compute wall clock for done jobs (0 for cache
	// hits: no engine ran).
	ElapsedSec float64 `json:"elapsed_sec,omitempty"`

	// Units and Perf carry the uniform per-unit statistics and perfstat
	// report of a completed fresh run — the same telemetry every backend
	// feeds; cache hits have neither.
	Units []exec.UnitStats `json:"units,omitempty"`
	Perf  *perfstat.Report `json:"perf,omitempty"`
}

// Event is one entry of a job's progress stream: a state transition or a
// progress log line from the backend (per-shard completions, checkpoint
// resumes). Events are sequence-numbered per job, and the stream endpoints
// replay the full history before following live, so a late subscriber sees
// the same stream as one connected from the start.
type Event struct {
	Seq   int    `json:"seq"`
	Type  string `json:"type"` // "state" or "log"
	State State  `json:"state,omitempty"`
	// Message is the log line ("log") or the failure reason (terminal
	// "state" events).
	Message string    `json:"message,omitempty"`
	Time    time.Time `json:"time"`
}

// Stats is the server-wide counter snapshot of GET /v1/stats. The cache
// counters are what TestCacheHitBitwiseIdenticalToColdRun asserts on: a
// resubmitted job must raise CacheHits, not Submitted alone.
type Stats struct {
	Workers    int `json:"workers"`
	QueueDepth int `json:"queue_depth"`

	Queued  int `json:"queued"`
	Running int `json:"running"`

	Submitted uint64 `json:"submitted"`
	Done      uint64 `json:"done"`
	Failed    uint64 `json:"failed"`
	Cancelled uint64 `json:"cancelled"`

	CacheHits    uint64 `json:"cache_hits"`
	CacheMisses  uint64 `json:"cache_misses"`
	CacheEntries int    `json:"cache_entries"`

	// Durable reports a server running with a state dir: journaled job
	// lifecycle, disk-backed result cache, kill-and-restart recovery.
	Durable bool `json:"durable,omitempty"`
	// RestoredJobs counts terminal jobs restored from the journal at this
	// process's boot; RequeuedJobs counts jobs found queued or running at
	// the previous process's death and re-enqueued. Both are zero on a
	// clean boot — galactosd's crash sweep (TestCrashRecovery) asserts on
	// them.
	RestoredJobs uint64 `json:"restored_jobs,omitempty"`
	RequeuedJobs uint64 `json:"requeued_jobs,omitempty"`
}
