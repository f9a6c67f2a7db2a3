// Package shard implements the out-of-core sharded 3PCF pipeline: the
// single-machine analogue of the paper's Sec. 3.2/3.3 scale-out strategy
// (partition spatially, pad with halo copies, compute each piece
// independently, reduce the partial multipoles). Where the paper gives every
// piece its own MPI rank — all rank-local state resident at once — shard
// cuts the catalog into spatially-local pieces with the k-d partitioner of
// package partition and computes them a bounded number at a time, so the
// peak engine footprint (neighbor index, per-worker accumulators, pair
// buckets) is that of one shard, not the whole catalog. Each shard's partial
// core.Result can be checkpointed to disk in the versioned binary format of
// core.WriteResult and a killed run resumed: shards with a valid checkpoint
// are loaded instead of recomputed, and the deterministic split plus fixed
// merge order make the resumed result identical to an uninterrupted one. See
// DESIGN.md, "shard".
package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"galactos/internal/catalog"
	"galactos/internal/core"
	"galactos/internal/faultpoint"
	"galactos/internal/hist"
	"galactos/internal/partition"
	"galactos/internal/retry"
)

// Faultpoints of the checkpoint/spill IO paths. Loads degrade (an unusable
// checkpoint means recompute, and after retry an unreadable merge partial is
// the one hard failure); saves and spills retry under the default policy —
// SaveResult writes to a temp file and renames, and spill files are
// truncated on re-create, so every attempt starts clean.
var (
	fpCkptSave = faultpoint.New("shard.checkpoint.save")
	fpCkptLoad = faultpoint.New("shard.checkpoint.load")
)

// saveCheckpoint persists one shard's partial with bounded retries: the
// atomic temp-file-plus-rename write makes each attempt all-or-nothing.
// Cancellation is deliberately detached: a shard whose compute finished as
// the run was cancelled must still land its checkpoint — that is what makes
// a cancelled run resumable — and the retry schedule is bounded, so the
// detachment cannot stall shutdown meaningfully.
func saveCheckpoint(ctx context.Context, path string, res *core.Result) error {
	ctx = context.WithoutCancel(ctx)
	return retry.Policy{}.Do(ctx, "checkpoint save", func() error {
		if err := fpCkptSave.Inject(); err != nil {
			return err
		}
		return core.SaveResult(path, res)
	})
}

// loadPartial reads one shard's checkpointed partial for the merge, with
// bounded retries: at merge time the partial is the only copy of the shard's
// work, so a transient read failure must not discard the run.
func loadPartial(ctx context.Context, path string) (*core.Result, error) {
	var res *core.Result
	err := retry.Policy{}.Do(ctx, "checkpoint load", func() error {
		if err := fpCkptLoad.Inject(); err != nil {
			return err
		}
		got, err := core.LoadResult(path)
		if err != nil {
			return err
		}
		res = got
		return nil
	})
	return res, err
}

// Options configures a sharded computation beyond the engine Config.
type Options struct {
	// NShards is the number of spatial shards (>= 1).
	NShards int
	// MaxConcurrent bounds how many shards compute at once; <= 0 means 1
	// (fully sequential, minimum memory). When > 1 and Config.Workers is
	// unset, the engine workers are divided among concurrent shards so the
	// host is not oversubscribed.
	MaxConcurrent int
	// CheckpointDir, when non-empty, is created if needed and receives one
	// binary partial-Result file per shard plus a manifest.json recording
	// the run's identity. Completed partials are released from memory and
	// streamed back at merge time, so peak memory holds one shard's engine
	// state plus two Results.
	CheckpointDir string
	// Resume reuses valid checkpoints found in CheckpointDir: shards whose
	// file loads cleanly and matches the manifest are not recomputed.
	// Requires CheckpointDir.
	Resume bool
	// Keep retains the per-shard checkpoint files after a successful merge
	// (by default they are removed once the merged result exists).
	Keep bool
	// Log, when non-nil, receives one progress line per shard event.
	Log func(format string, args ...any)
}

// Stats reports one shard's share of the work, used for the load-balance
// analysis of Sec. 5.2/5.3 (the paper observed ~25% imbalance in weak
// scaling and up to 60% pair-count variation in strong scaling).
type Stats struct {
	// Shard is the shard index in split order.
	Shard int
	// NOwned and NHalo count the shard's primaries and halo copies.
	NOwned, NHalo int
	// Pairs is the shard's kernel pair count.
	Pairs uint64
	// Elapsed is the shard's compute wall-clock (0 when resumed).
	Elapsed time.Duration
	// Resumed marks shards restored from a checkpoint instead of computed.
	Resumed bool
}

// manifest pins a checkpoint directory to one (catalog, config, shard
// count) so a resume cannot silently merge partials from a different run.
type manifest struct {
	Version       int     `json:"version"`
	NShards       int     `json:"nshards"`
	NGalaxies     int     `json:"ngalaxies"`
	BoxL          float64 `json:"box_l"`
	SumWeight     float64 `json:"sum_weight"`
	RMax          float64 `json:"rmax"`
	RMin          float64 `json:"rmin"`
	NBins         int     `json:"nbins"`
	LMax          int     `json:"lmax"`
	LOS           int     `json:"los"`
	ObserverX     float64 `json:"observer_x"`
	ObserverY     float64 `json:"observer_y"`
	ObserverZ     float64 `json:"observer_z"`
	SelfCount     bool    `json:"self_count"`
	IsotropicOnly bool    `json:"isotropic_only"`
	// Stream marks a streaming-slab run: its shard decomposition differs
	// from the k-d split, so the two modes' checkpoints never mix.
	Stream bool `json:"stream"`
}

const manifestVersion = 1

func newManifest(ngalaxies int, boxL, sumWeight float64, cfg core.Config, nshards int) manifest {
	return manifest{
		Version:       manifestVersion,
		NShards:       nshards,
		NGalaxies:     ngalaxies,
		BoxL:          boxL,
		SumWeight:     sumWeight,
		RMax:          cfg.RMax,
		RMin:          cfg.RMin,
		NBins:         cfg.NBins,
		LMax:          cfg.LMax,
		LOS:           int(cfg.LOS),
		ObserverX:     cfg.Observer.X,
		ObserverY:     cfg.Observer.Y,
		ObserverZ:     cfg.Observer.Z,
		SelfCount:     cfg.SelfCount,
		IsotropicOnly: cfg.IsotropicOnly,
	}
}

// ShardedCompute runs the sharded pipeline with default options: nshards
// sequential shards, no checkpointing. It is the drop-in bounded-memory
// alternative to core.Compute; the merged multipoles agree with the
// single-shot result to floating-point rounding.
func ShardedCompute(cat *catalog.Catalog, nshards int, cfg core.Config) (*core.Result, []Stats, error) {
	return Compute(cat, cfg, Options{NShards: nshards})
}

// Compute runs the full sharded pipeline: k-d split, per-shard halo
// materialization and node-local 3PCF under the concurrency bound, optional
// checkpointing, and the deterministic in-order merge. Stats are returned
// in shard order.
func Compute(cat *catalog.Catalog, cfg core.Config, opts Options) (*core.Result, []Stats, error) {
	return ComputeContext(context.Background(), cat, cfg, opts)
}

// ComputeContext is Compute under a context. Cancelling ctx stops the
// pipeline promptly: no new shard starts, in-flight shards abandon their
// engines at the next scheduling chunk, and ctx.Err() is returned.
// Checkpoints of shards that completed before the cancellation stay on
// disk (along with the manifest), so a cancelled checkpointed run is
// resumable exactly like a killed one.
func ComputeContext(ctx context.Context, cat *catalog.Catalog, cfg core.Config, opts Options) (*core.Result, []Stats, error) {
	if cat == nil {
		return nil, nil, fmt.Errorf("shard: nil catalog")
	}
	if opts.NShards <= 0 {
		return nil, nil, fmt.Errorf("shard: NShards %d must be positive", opts.NShards)
	}
	if opts.Resume && opts.CheckpointDir == "" {
		return nil, nil, fmt.Errorf("shard: Resume requires CheckpointDir")
	}
	if cat.Box.L > 0 && cfg.RMax >= cat.Box.L/2 {
		return nil, nil, fmt.Errorf("shard: RMax %v must be below half the periodic box %v", cfg.RMax, cat.Box.L)
	}
	bins, err := hist.NewBinning(cfg.RMin, cfg.RMax, cfg.NBins)
	if err != nil {
		return nil, nil, err
	}
	logf := opts.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	concurrent := opts.MaxConcurrent
	if concurrent <= 0 {
		concurrent = 1
	}
	if concurrent > opts.NShards {
		concurrent = opts.NShards
	}
	shardCfg := cfg.DivideWorkers(concurrent)

	pipelineStart := time.Now()
	parts, err := partition.Split(cat, opts.NShards)
	if err != nil {
		return nil, nil, err
	}

	if opts.CheckpointDir != "" {
		m := newManifest(cat.Len(), cat.Box.L, cat.TotalWeight(), cfg, opts.NShards)
		if err := prepareDir(opts.CheckpointDir, m, opts); err != nil {
			return nil, nil, err
		}
	}

	// inMemory holds completed partials only when there is no checkpoint
	// dir; with one, partials live on disk and are streamed at merge time.
	inMemory := make([]*core.Result, opts.NShards)
	stats := make([]Stats, opts.NShards)
	var (
		wg       sync.WaitGroup
		sem      = make(chan struct{}, concurrent)
		mu       sync.Mutex
		firstErr error
	)
	for i := range parts {
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			mu.Lock()
			failed := firstErr != nil
			mu.Unlock()
			if failed || ctx.Err() != nil {
				return
			}
			res, st, err := computeShard(ctx, cat, parts, i, shardCfg, opts, logf)
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("shard %d/%d: %w", i, opts.NShards, err)
				}
				mu.Unlock()
				return
			}
			stats[i] = st
			if opts.CheckpointDir == "" {
				inMemory[i] = res
			}
		}(i)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if firstErr != nil {
		return nil, nil, firstErr
	}

	// Merge in shard order: deterministic, and with checkpoints only two
	// Results are resident at a time.
	total := core.NewResult(cfg.LMax, bins)
	for i := range parts {
		partial := inMemory[i]
		if opts.CheckpointDir != "" {
			partial, err = loadPartial(ctx, checkpointPath(opts.CheckpointDir, i, opts.NShards))
			if err != nil {
				return nil, nil, fmt.Errorf("shard: merging shard %d: %w", i, err)
			}
		}
		if err := total.Merge(partial); err != nil {
			return nil, nil, fmt.Errorf("shard: merging shard %d: %w", i, err)
		}
	}
	// Each partial counts its own halo copies in NGalaxies; the merged
	// result describes the whole catalog. Likewise the merged Total timing
	// (the max over shards, a concurrent-ranks convention) understates a
	// bounded-concurrency pipeline: report the true wall clock so perfstat
	// rates stay honest.
	total.NGalaxies = cat.Len()
	total.Timings.Total = time.Since(pipelineStart)

	finishCheckpoints(opts)
	return total, stats, nil
}

// finishCheckpoints removes run state that must not outlive a successful
// merge: streaming spill scratch always (a kill can strand it under the
// checkpoint dir), and the per-shard checkpoints plus manifest unless the
// caller asked to keep them.
func finishCheckpoints(opts Options) {
	if opts.CheckpointDir == "" {
		return
	}
	os.RemoveAll(filepath.Join(opts.CheckpointDir, spillDirName))
	if opts.Keep {
		return
	}
	for i := 0; i < opts.NShards; i++ {
		os.Remove(checkpointPath(opts.CheckpointDir, i, opts.NShards))
	}
	os.Remove(filepath.Join(opts.CheckpointDir, manifestName))
}

// removeStaleTemps deletes temporary files left behind by SaveResult calls
// in runs that were killed mid-write (the atomic rename never happened, so
// only debris with the .tmp suffix pattern can remain).
func removeStaleTemps(dir string) {
	stale, _ := filepath.Glob(filepath.Join(dir, "shard-*.gres.tmp*"))
	for _, p := range stale {
		os.Remove(p)
	}
}

// computeShard produces shard i's partial result: from a valid checkpoint
// when resuming, otherwise by materializing the halo and running the
// node-local engine. With a checkpoint dir the partial is persisted and the
// returned *core.Result is only meaningful for the in-memory path.
func computeShard(ctx context.Context, cat *catalog.Catalog, parts []partition.Part, i int, cfg core.Config, opts Options, logf func(string, ...any)) (*core.Result, Stats, error) {
	owned := parts[i].Index
	st := Stats{Shard: i, NOwned: len(owned)}

	if opts.Resume {
		if res, ok := loadCheckpoint(opts.CheckpointDir, i, opts.NShards, cfg, len(owned), logf); ok {
			st.NHalo = res.NGalaxies - len(owned)
			st.Pairs = res.Pairs
			st.Resumed = true
			logf("shard %d/%d: resumed from checkpoint (%d primaries, %d pairs)",
				i, opts.NShards, res.NPrimaries, res.Pairs)
			if opts.CheckpointDir != "" {
				return nil, st, nil
			}
			return res, st, nil
		}
	}

	if len(owned) == 0 {
		// A shard with no primaries contributes nothing; skip the engine
		// (and the halo scan) and emit an empty partial so checkpoint
		// bookkeeping stays uniform.
		bins := hist.Binning{RMin: cfg.RMin, RMax: cfg.RMax, N: cfg.NBins}
		res := core.NewResult(cfg.LMax, bins)
		if opts.CheckpointDir != "" {
			if err := saveCheckpoint(ctx, checkpointPath(opts.CheckpointDir, i, opts.NShards), res); err != nil {
				return nil, st, fmt.Errorf("checkpointing: %w", err)
			}
			return nil, st, nil
		}
		return res, st, nil
	}

	start := time.Now()
	local, primary := partition.Materialize(cat, parts, i, cfg.RMax)
	res, err := core.ComputeSubsetContext(ctx, local, primary, cfg)
	if err != nil {
		return nil, st, err
	}
	st.NHalo = local.Len() - len(owned)
	st.Pairs = res.Pairs
	st.Elapsed = time.Since(start)
	logf("shard %d/%d: computed %d primaries + %d halo in %v (%d pairs)",
		i, opts.NShards, len(owned), st.NHalo, st.Elapsed.Round(time.Millisecond), res.Pairs)

	if opts.CheckpointDir != "" {
		if err := saveCheckpoint(ctx, checkpointPath(opts.CheckpointDir, i, opts.NShards), res); err != nil {
			return nil, st, fmt.Errorf("checkpointing: %w", err)
		}
		return nil, st, nil
	}
	return res, st, nil
}

// loadCheckpoint returns shard i's checkpointed partial if it exists, loads
// cleanly (the format rejects truncation and corruption), and matches the
// expected configuration and primary count. Any mismatch means recompute,
// not failure: a killed run may leave arbitrary debris.
func loadCheckpoint(dir string, i, nshards int, cfg core.Config, nOwned int, logf func(string, ...any)) (*core.Result, bool) {
	path := checkpointPath(dir, i, nshards)
	if err := fpCkptLoad.Inject(); err != nil {
		logf("shard %d/%d: discarding unusable checkpoint: %v", i, nshards, err)
		return nil, false
	}
	res, err := core.LoadResult(path)
	if err != nil {
		if !os.IsNotExist(err) {
			logf("shard %d/%d: discarding unusable checkpoint: %v", i, nshards, err)
		}
		return nil, false
	}
	bins := hist.Binning{RMin: cfg.RMin, RMax: cfg.RMax, N: cfg.NBins}
	if res.LMax != cfg.LMax || res.Bins != bins || res.NPrimaries != nOwned {
		logf("shard %d/%d: checkpoint does not match this run; recomputing", i, nshards)
		return nil, false
	}
	return res, true
}

const manifestName = "manifest.json"

// prepareDir creates the checkpoint directory and reconciles its manifest:
// a resume must find a manifest describing this exact run (or none, for a
// run killed before the manifest was written); a fresh run overwrites.
func prepareDir(dir string, want manifest, opts Options) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	removeStaleTemps(dir)
	path := filepath.Join(dir, manifestName)
	if opts.Resume {
		data, err := os.ReadFile(path)
		if err == nil {
			var got manifest
			if jsonErr := json.Unmarshal(data, &got); jsonErr != nil {
				return fmt.Errorf("shard: unreadable %s (%v); remove %s or drop Resume", manifestName, jsonErr, dir)
			}
			if got != want {
				return fmt.Errorf("shard: checkpoint dir %s belongs to a different run (manifest mismatch); remove it or drop Resume", dir)
			}
			return nil
		} else if !os.IsNotExist(err) {
			return err
		}
	}
	data, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// checkpointPath names shard i's partial-Result file.
func checkpointPath(dir string, i, nshards int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d-of-%04d.gres", i, nshards))
}
