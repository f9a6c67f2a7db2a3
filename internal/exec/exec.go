// Package exec is the execution layer: Run is the one way to compute a 3PCF
// job. A Request names the catalog, the core.Config and, in its Spec, where
// the job runs — the in-memory engine ("local") or the bounded-memory
// out-of-core slab pipeline ("sharded"). Run checks the request once,
// normalizes its config once, and wraps either path in the same wall clock,
// so every run returns the same record (RunResult: the merged result with
// its phase timings, the per-unit statistics, the backend and the elapsed
// time), and honors context cancellation with the same semantics: prompt
// return with ctx.Err(), no leaked goroutines, and (for checkpointed sharded
// runs) a resumable checkpoint directory. See DESIGN.md, "Execution layer".
package exec

import (
	"context"
	"fmt"
	"math"
	"time"

	"galactos/internal/catalog"
	"galactos/internal/core"
	"galactos/internal/shard"
)

// Request is the one canonical description of a 3PCF job: what catalog to
// compute over, with which configuration, on which backend. It is both the
// programmatic entry point (Run) and, serialized to JSON, the wire schema of
// the galactosd job service — the two surfaces are one design, so a request
// that runs locally submits unchanged over HTTP (see the client package).
//
// Exactly one catalog input must be set: Source (programmatic streaming,
// not serializable), Catalog (inline, serialized with the request), or Path
// (a file local to whoever executes the request — the submitting process
// for Run, the server for galactosd).
type Request struct {
	// Source supplies the catalog programmatically (a memory or file
	// source, or any streaming implementation). It does not serialize;
	// requests bound for a remote service use Catalog or Path.
	Source catalog.Source `json:"-"`
	// Catalog is an inline catalog carried with the request.
	Catalog *catalog.Catalog `json:"catalog,omitempty"`
	// Path names a catalog file (binary, or CSV for .csv paths), resolved
	// where the request executes.
	Path string `json:"path,omitempty"`
	// Config is the engine configuration. It is normalized exactly once,
	// at execution entry: defaulted (zero) tunables and their spelled-out
	// normalized values produce bitwise-identical results and identical
	// Config.Fingerprint cache keys.
	Config core.Config `json:"config"`
	// Backend selects and parameterizes the execution strategy from
	// flag-shaped values; the zero value is the local backend.
	Backend Spec `json:"backend,omitempty"`
	// TimeoutSec, when positive, bounds the run's wall clock: the run is
	// cancelled with context.DeadlineExceeded once it elapses. It rides the
	// wire, so a remote submission carries its own deadline; the galactosd
	// server additionally caps every job with its Options.JobTimeout.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
	// Label is galactosd's job label: the job's status and journal record
	// carry it. Run does not read it.
	Label string `json:"label,omitempty"`
	// Log, when non-nil, receives the run's progress lines (per-shard
	// completions, checkpoint resumes). The job service streams these to
	// clients as events; it does not serialize.
	Log func(format string, args ...any) `json:"-"`
}

// maxTimeoutSec is the longest TimeoutSec a time.Duration can hold.
const maxTimeoutSec = float64(math.MaxInt64 / int64(time.Second))

// Resolve is the one check of a request, shared by Run and the job
// service's submission and crash recovery: exactly one catalog input, a
// backend spec that selects a backend it parameterizes, and a TimeoutSec a
// time.Duration can hold. It returns the catalog source the request
// designates. It reads no catalog and does not check the config, which Run
// normalizes (and the service fingerprints) next.
func (r Request) Resolve() (catalog.Source, error) {
	n := 0
	if r.Source != nil {
		n++
	}
	if r.Catalog != nil {
		n++
	}
	if r.Path != "" {
		n++
	}
	switch {
	case n == 0:
		return nil, fmt.Errorf("galactos: request has no catalog (set Source, Catalog, or Path)")
	case n > 1:
		return nil, fmt.Errorf("galactos: request has several catalog inputs (set exactly one of Source, Catalog, Path)")
	}
	if err := r.Backend.check(); err != nil {
		return nil, err
	}
	if r.TimeoutSec > maxTimeoutSec {
		return nil, fmt.Errorf("exec: timeout_sec %g exceeds the longest timeout, %g s", r.TimeoutSec, maxTimeoutSec)
	}
	switch {
	case r.Source != nil:
		return r.Source, nil
	case r.Catalog != nil:
		return catalog.NewMemorySource(r.Catalog), nil
	default:
		return catalog.NewFileSource(r.Path), nil
	}
}

// UnitStats is the uniform per-execution-unit report: a unit is the single
// engine run of the local backend or one slab of the sharded backend.
type UnitStats = shard.UnitStats

// RunResult is the one record of a run, identical across backends: the
// merged result with its phase timings (Result.Timings), the per-unit
// statistics, the backend that ran ("local" or "sharded") and the wall
// clock of the whole pipeline. It marshals to JSON as-is (durations in ns);
// that encoding is what `galactos -perf-json` writes.
type RunResult struct {
	Result  *core.Result
	Units   []UnitStats
	Backend string
	Elapsed time.Duration
}

// Run executes a request end-to-end under one wall clock around the whole
// pipeline, identical across backends.
//
// Run checks the request (Resolve) and normalizes its config exactly once,
// here at entry; an invalid request or config is rejected before any
// catalog IO — so a job submitted with defaulted tunables and the same job
// with the normalized config spelled out produce bitwise-identical results
// on every backend. TimeoutSec, when positive, bounds ctx. Cancelling ctx
// returns ctx.Err() promptly and leaks no goroutines; a cancelled
// checkpointed sharded run leaves a resumable checkpoint directory.
func Run(ctx context.Context, req Request) (*RunResult, error) {
	src, err := req.Resolve()
	if err != nil {
		return nil, err
	}
	cfg, err := req.Config.Normalize()
	if err != nil {
		return nil, err
	}
	if note := req.Backend.DeprecationNote(); note != "" && req.Log != nil {
		req.Log("%s", note)
	}
	if req.TimeoutSec > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutSec*float64(time.Second)))
		defer cancel()
	}
	start := time.Now()
	name := "local"
	var res *core.Result
	var units []UnitStats
	if req.Backend.Name == "sharded" {
		name = "sharded"
		res, units, err = runSharded(ctx, src, cfg, req.Backend, req.Log)
	} else {
		res, units, err = runLocal(ctx, src, cfg)
	}
	if err != nil {
		return nil, err
	}
	return &RunResult{
		Result:  res,
		Units:   units,
		Backend: name,
		Elapsed: time.Since(start),
	}, nil
}

// runLocal runs the single-node in-memory engine.
func runLocal(ctx context.Context, src catalog.Source, cfg core.Config) (*core.Result, []UnitStats, error) {
	// Load the source into memory (the fast path unwraps a memory source
	// without copying). Transient IO failures retry under the catalog read
	// policy; ctx bounds the backoff waits.
	cat, err := catalog.ReadAllContext(ctx, src)
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	res, err := core.ComputeContext(ctx, cat, cfg)
	if err != nil {
		return nil, nil, err
	}
	return res, []UnitStats{{
		Unit:    0,
		NOwned:  res.NPrimaries,
		Pairs:   res.Pairs,
		Elapsed: time.Since(start),
	}}, nil
}

// runSharded runs the bounded-memory out-of-core pipeline (shard.Compute):
// the source is streamed into equal-count slabs computed one at a time.
func runSharded(ctx context.Context, src catalog.Source, cfg core.Config, s Spec, logf func(string, ...any)) (*core.Result, []UnitStats, error) {
	return shard.Compute(ctx, src, cfg, shard.Options{
		NShards:       max(s.Shards, 1),
		CheckpointDir: s.CheckpointDir,
		Resume:        s.Resume,
		Keep:          s.Keep,
		Log:           logf,
	})
}

// Spec selects and parameterizes the backend a Request runs on, from
// flag-shaped inputs (the cmd/galactos -backend surface).
type Spec struct {
	// Name is "local" (or empty) or "sharded".
	Name string
	// Shards / CheckpointDir / Resume / Keep parameterize the sharded
	// backend; Shards below 1 means one slab.
	Shards int
	// Deprecated: every sharded run computes one slab at a time. See Stream.
	ShardConcurrency int
	CheckpointDir    string
	Resume           bool
	Keep             bool
	// Deprecated: every sharded run streams its source, so Stream and
	// ShardConcurrency select nothing. They still decode (journaled and wire
	// requests carry them) and are ignored, with one progress line saying so
	// (DeprecationNote); the next version makes setting them an error, the
	// way the dist backend was retired.
	Stream bool
}

// DeprecationNote returns the progress line a run logs when the spec sets a
// deprecated field, or "" when it sets none.
func (s Spec) DeprecationNote() string {
	if !s.Stream && s.ShardConcurrency <= 1 {
		return ""
	}
	return "backend spec: Stream and ShardConcurrency are deprecated and ignored (every sharded run streams its catalog one slab at a time); a later version rejects them"
}

// check refuses an unknown backend name, and a spec that parameterizes a
// backend it does not select — never a silent drop: a caller who set
// Shards or CheckpointDir must not get a fully-resident local run.
func (s Spec) check() error {
	switch s.Name {
	case "local", "":
		if s.Shards > 1 || s.ShardConcurrency > 1 || s.CheckpointDir != "" ||
			s.Resume || s.Keep || s.Stream {
			return fmt.Errorf("exec: local backend selected but sharded parameters set (%+v)", s)
		}
		return nil
	case "sharded":
		return nil
	default:
		return fmt.Errorf("exec: unknown backend %q (want local or sharded)", s.Name)
	}
}
