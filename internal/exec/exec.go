// Package exec is the unified execution layer: one backend-agnostic way to
// run a 3PCF job through either compute path — the in-memory engine (Local)
// or the bounded-memory out-of-core slab pipeline (Sharded). A job is a
// catalog source plus a core.Config; a Backend turns it into a core.Result
// and uniform per-unit statistics. Run wraps any backend with the shared
// wall-clock timing and perfstat collection, so every path feeds the same
// phase breakdown and pairs/sec report, and every path honors context
// cancellation with the same semantics: prompt return with ctx.Err(), no
// leaked goroutines, and (for checkpointed sharded runs) a resumable
// checkpoint directory. See DESIGN.md, "Execution layer".
package exec

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"galactos/internal/catalog"
	"galactos/internal/core"
	"galactos/internal/perfstat"
	"galactos/internal/shard"
)

// Job is the shared job descriptor: what to compute, over which catalog,
// with which run options.
type Job struct {
	// Source supplies the catalog. The local backend materializes it; the
	// sharded backend streams it, whatever kind of source it is.
	Source catalog.Source
	// Config is the engine configuration (normalized by the backend).
	Config core.Config
	// Label names the run in the perfstat report; empty selects the
	// backend name.
	Label string
	// Log, when non-nil, receives progress lines from the backend.
	Log func(format string, args ...any)
}

// UnitStats is the uniform per-execution-unit report: a unit is the single
// engine run of the local backend or one shard of the sharded backend.
type UnitStats struct {
	// Unit is the unit index in deterministic backend order.
	Unit int
	// NOwned and NHalo count the unit's primaries and halo copies.
	NOwned, NHalo int
	// Pairs is the unit's kernel pair count.
	Pairs uint64
	// Elapsed is the unit's compute wall clock (0 when resumed).
	Elapsed time.Duration
	// Resumed marks sharded units restored from a checkpoint.
	Resumed bool
}

// Backend is one execution strategy for a Job.
type Backend interface {
	// Name identifies the backend ("local" or "sharded").
	Name() string
	// Run executes the job. Cancelling ctx returns ctx.Err() promptly and
	// leaks no goroutines.
	Run(ctx context.Context, job *Job) (*core.Result, []UnitStats, error)
}

// RunResult bundles a backend run's outputs: the merged result, the
// per-unit statistics, and the uniform performance report.
type RunResult struct {
	Result  *core.Result
	Units   []UnitStats
	Perf    *perfstat.Report
	Elapsed time.Duration
}

// Run executes a job on a backend under the shared telemetry: one wall
// clock around the whole pipeline and one perfstat collection, identical
// across backends.
//
// Run normalizes the job's config exactly once, here at entry, and hands
// every backend the normalized form; an invalid config is rejected before
// any catalog IO — so a job submitted with defaulted tunables and the same
// job with the normalized config spelled out produce bitwise-identical
// results on every backend.
func Run(ctx context.Context, b Backend, job *Job) (*RunResult, error) {
	if job.Source == nil {
		return nil, fmt.Errorf("exec: job has no catalog source")
	}
	ncfg, err := job.Config.Normalize()
	if err != nil {
		return nil, err
	}
	j := *job
	j.Config = ncfg
	job = &j
	start := time.Now()
	res, units, err := b.Run(ctx, job)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	label := job.Label
	if label == "" {
		label = b.Name()
	}
	perf := perfstat.Collect(label, job.Config, res, elapsed)
	perf.Backend = b.Name()
	return &RunResult{
		Result:  res,
		Units:   units,
		Perf:    perf,
		Elapsed: elapsed,
	}, nil
}

// WithLog returns a backend that supplies logf as the job's progress
// logger when the job carries none (a backend constructor's way to honor a
// caller-provided logger).
func WithLog(b Backend, logf func(format string, args ...any)) Backend {
	return withLog{Backend: b, logf: logf}
}

type withLog struct {
	Backend
	logf func(string, ...any)
}

func (w withLog) Run(ctx context.Context, job *Job) (*core.Result, []UnitStats, error) {
	if job.Log == nil && w.logf != nil {
		j := *job
		j.Log = w.logf
		job = &j
	}
	return w.Backend.Run(ctx, job)
}

// Staged returns a backend scoped to one named stage of a multi-run
// workload. Only checkpoint state needs scoping: a Sharded backend with a
// CheckpointDir gets a per-stage subdirectory, so the several engine runs
// of one workload (the D-R and randoms runs of the survey estimator, each
// leave-one-out region of a jackknife) keep disjoint checkpoint sets and
// resume independently. Backends without checkpoint state are returned
// unchanged; logging wrappers are preserved around the staged backend.
func Staged(b Backend, stage string) Backend {
	switch t := b.(type) {
	case withLog:
		return withLog{Backend: Staged(t.Backend, stage), logf: t.logf}
	case Sharded:
		if t.CheckpointDir != "" {
			t.CheckpointDir = filepath.Join(t.CheckpointDir, stage)
		}
		return t
	default:
		return b
	}
}

// Local runs the single-node in-memory engine.
type Local struct{}

// Name implements Backend.
func (Local) Name() string { return "local" }

// Run implements Backend.
func (Local) Run(ctx context.Context, job *Job) (*core.Result, []UnitStats, error) {
	// Load the source into memory (the fast path unwraps a MemorySource
	// without copying). Transient IO failures retry under the catalog read
	// policy; ctx bounds the backoff waits.
	cat, err := catalog.ReadAllContext(ctx, job.Source)
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	res, err := core.ComputeContext(ctx, cat, job.Config)
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

// Sharded runs the bounded-memory out-of-core pipeline (shard.Compute): the
// source is streamed into equal-count slabs computed one at a time.
type Sharded struct {
	// NShards is the number of slabs (>= 1).
	NShards int
	// CheckpointDir/Resume/Keep are the checkpoint options of
	// shard.Options.
	CheckpointDir string
	Resume        bool
	Keep          bool
}

// Name implements Backend.
func (Sharded) Name() string { return "sharded" }

// Run implements Backend.
func (b Sharded) Run(ctx context.Context, job *Job) (*core.Result, []UnitStats, error) {
	res, stats, err := shard.Compute(ctx, job.Source, job.Config, shard.Options{
		NShards:       b.NShards,
		CheckpointDir: b.CheckpointDir,
		Resume:        b.Resume,
		Keep:          b.Keep,
		Log:           job.Log,
	})
	if err != nil {
		return nil, nil, err
	}
	units := make([]UnitStats, len(stats))
	for i, s := range stats {
		units[i] = UnitStats{
			Unit:    s.Shard,
			NOwned:  s.NOwned,
			NHalo:   s.NHalo,
			Pairs:   s.Pairs,
			Elapsed: s.Elapsed,
			Resumed: s.Resumed,
		}
	}
	return res, units, nil
}

// Spec selects and parameterizes a backend from flag-shaped inputs (the
// cmd/galactos -backend surface).
type Spec struct {
	// Name is "local" or "sharded".
	Name string
	// Shards / CheckpointDir / Resume / Keep parameterize the sharded
	// backend.
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

// Backend resolves the spec. A spec that parameterizes a backend it does
// not select is an error, never a silent drop: a caller who set Shards or
// CheckpointDir must not get a fully-resident local run.
func (s Spec) Backend() (Backend, error) {
	switch s.Name {
	case "local", "":
		if s.Shards > 1 || s.ShardConcurrency > 1 || s.CheckpointDir != "" ||
			s.Resume || s.Keep || s.Stream {
			return nil, fmt.Errorf("exec: local backend selected but sharded parameters set (%+v)", s)
		}
		return Local{}, nil
	case "sharded":
		nshards := s.Shards
		if nshards <= 0 {
			nshards = 1
		}
		return Sharded{
			NShards:       nshards,
			CheckpointDir: s.CheckpointDir,
			Resume:        s.Resume,
			Keep:          s.Keep,
		}, nil
	default:
		return nil, fmt.Errorf("exec: unknown backend %q (want local or sharded)", s.Name)
	}
}
