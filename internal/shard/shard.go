// Package shard implements the out-of-core sharded 3PCF pipeline: the
// single-machine analogue of the paper's Sec. 3.2/3.3 scale-out strategy
// (partition spatially, pad with halo copies within RMax, compute each piece
// alone, reduce the partial multipoles). Where the paper gives every piece
// its own MPI rank — all rank-local state resident at once — Compute streams
// a catalog.Source through three sequential passes (count / bounds / weight,
// an equal-count histogram along the widest axis that fixes the slab cuts,
// a spill pass that scatters every galaxy into per-slab record files: owned,
// plus halo membership for every slab within RMax along the cut axis,
// periodic wrap included) and then computes one slab at a time, so peak
// memory is one slab's galaxies plus halo plus one engine, whatever the
// catalog's size and wherever it lives — a memory source takes the same
// path. Slab catalogs keep the source's periodic box and unshifted
// coordinates, so the engine's own image handling covers the wrap and every
// primary sees exactly the neighbour set (and line of sight) of a
// single-shot run. Each slab's partial core.Result can be checkpointed in
// the binary format of core.WriteResult and a killed run resumed: slabs with
// a valid checkpoint are loaded instead of recomputed, and the deterministic
// plan plus fixed merge order make the resumed result identical to an
// uninterrupted one. See DESIGN.md, "shard".
package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"galactos/internal/catalog"
	"galactos/internal/core"
	"galactos/internal/faultpoint"
	"galactos/internal/hist"
	"galactos/internal/retry"
)

// Faultpoints of the checkpoint IO paths. Loads degrade (an unusable
// checkpoint means recompute); saves retry under the default policy —
// SaveResult writes to a temp file and renames, so every attempt starts
// clean.
var (
	fpCkptSave = faultpoint.New("shard.checkpoint.save")
	fpCkptLoad = faultpoint.New("shard.checkpoint.load")
)

// saveCheckpoint persists one slab's partial with bounded retries: the
// atomic temp-file-plus-rename write makes each attempt all-or-nothing.
// Cancellation is deliberately detached: a slab whose compute finished as
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

// Options configures a sharded computation beyond the engine Config.
type Options struct {
	// NShards is the number of slabs (>= 1).
	NShards int
	// CheckpointDir, when non-empty, is created if needed and receives one
	// binary partial-Result file per slab, a manifest.json recording the
	// run's identity, and the spill scratch (the disk the operator chose for
	// this run's state; without it the spill goes to a fresh temp dir).
	CheckpointDir string
	// Resume reuses valid checkpoints found in CheckpointDir: slabs whose
	// file loads cleanly and matches the manifest are not recomputed.
	// Requires CheckpointDir.
	Resume bool
	// Keep retains the per-slab checkpoint files after a successful merge
	// (by default they are removed once the merged result exists).
	Keep bool
	// Log, when non-nil, receives one progress line per slab event.
	Log func(format string, args ...any)
}

// UnitStats reports one execution unit's share of the work: a slab here,
// or the single engine run of a local run (exec). It feeds the load-balance
// analysis of Sec. 5.2/5.3 (the paper observed ~25% imbalance in weak
// scaling and up to 60% pair-count variation in strong scaling).
type UnitStats struct {
	// Unit is the unit index (the slab index in cut order).
	Unit int
	// NOwned and NHalo count the unit's primaries and halo copies.
	NOwned, NHalo int
	// Pairs is the unit's kernel pair count.
	Pairs uint64
	// Elapsed is the unit's compute wall-clock (0 when resumed).
	Elapsed time.Duration
	// Resumed marks slabs restored from a checkpoint instead of computed.
	Resumed bool
}

// manifest pins a checkpoint directory to one (catalog, config, slab count)
// so a resume cannot silently merge partials from a different run. The
// config is pinned by core.Config.Fingerprint, the run identity the service
// cache key and journal use too.
type manifest struct {
	Version           int     `json:"version"`
	NShards           int     `json:"nshards"`
	NGalaxies         int     `json:"ngalaxies"`
	BoxL              float64 `json:"box_l"`
	SumWeight         float64 `json:"sum_weight"`
	ConfigFingerprint string  `json:"config_fingerprint"`
}

// manifestVersion 3 pins the config by its Fingerprint. Version 2 copied ten
// science fields by hand and missed the execution knobs then hashed beside
// them, so a resume could merge slabs computed under a different bucket
// size; version 1 also described k-d shards (told apart by a "stream" field
// that no longer decodes), whose partials can share LMax, bins and even
// owned counts with a slab's. An older directory is refused under Resume,
// never merged. Migration: rerun without -resume (the directory is
// overwritten), or delete it — older checkpoints cannot be converted.
const manifestVersion = 3

func newManifest(sc *sourceScan, cfg core.Config, nshards int) (manifest, error) {
	fp, err := cfg.Fingerprint()
	return manifest{
		Version:           manifestVersion,
		NShards:           nshards,
		NGalaxies:         sc.n,
		BoxL:              sc.box.L,
		SumWeight:         sc.sumW,
		ConfigFingerprint: fp,
	}, err
}

// Compute runs the sharded pipeline over a catalog source: scan, plan,
// spill, then one slab at a time through the node-local engine, optional
// checkpointing, and the deterministic in-order merge. The merged
// multipoles agree with a single-shot run to floating-point rounding
// (identical pair sets, different accumulation order); stats are returned
// in slab order. Cancelling ctx stops the pipeline promptly with ctx.Err():
// no new slab starts and the running engine abandons its work at the next
// commit unit. Checkpoints of slabs that completed before the
// cancellation stay on disk (along with the manifest), so a cancelled
// checkpointed run is resumable exactly like a killed one.
func Compute(ctx context.Context, src catalog.Source, cfg core.Config, opts Options) (*core.Result, []UnitStats, error) {
	if src == nil {
		return nil, nil, fmt.Errorf("shard: nil catalog source")
	}
	if opts.NShards <= 0 {
		return nil, nil, fmt.Errorf("shard: NShards %d must be positive", opts.NShards)
	}
	if opts.Resume && opts.CheckpointDir == "" {
		return nil, nil, fmt.Errorf("shard: Resume requires CheckpointDir")
	}
	bins, err := hist.NewBinning(cfg.RMin, cfg.RMax, cfg.NBins)
	if err != nil {
		return nil, nil, err
	}
	logf := opts.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}

	// Every pass is a self-contained scan that reopens the source, so a
	// transient mid-pass failure (source IO or spill IO) restarts just that
	// pass under the default retry policy.
	var sc *sourceScan
	err = retry.Policy{}.Do(ctx, "catalog scan", func() (err error) {
		sc, err = scanSource(ctx, src)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	if sc.box.L > 0 && cfg.RMax >= sc.box.L/2 {
		return nil, nil, fmt.Errorf("shard: RMax %v must be below half the periodic box %v", cfg.RMax, sc.box.L)
	}

	if opts.CheckpointDir != "" {
		m, err := newManifest(sc, cfg, opts.NShards)
		if err == nil {
			err = prepareDir(opts.CheckpointDir, m, opts.Resume)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	// finish stamps the merged result — each partial counts its own halo
	// copies in NGalaxies, where the result describes the whole catalog —
	// and clears the run state that must not outlive a successful merge.
	finish := func(total *core.Result, stats []UnitStats) (*core.Result, []UnitStats, error) {
		total.NGalaxies = sc.n
		finishCheckpoints(opts)
		return total, stats, nil
	}

	// Resume: one validation pass over the slab checkpoints. If every slab
	// has one (the manifest above pinned the run identity, and the slab
	// plan is deterministic), merge them directly — no histogram pass, no
	// spill rewrite of the catalog. Otherwise the validity mask feeds the
	// spill pass below so intact slabs are counted but not rewritten, and
	// only they are loaded again, against their owned count.
	skip := make([]bool, opts.NShards)
	if opts.Resume {
		total, stats, valid, all := scanCheckpoints(sc, bins, cfg, opts, logf)
		if all {
			logf("shard: resumed all %d slabs from checkpoints (no re-spill)", opts.NShards)
			return finish(total, stats)
		}
		skip = valid
	}

	var plan *slabPlan
	err = retry.Policy{}.Do(ctx, "slab plan", func() (err error) {
		plan, err = planSlabs(ctx, src, sc, opts.NShards)
		return err
	})
	if err != nil {
		return nil, nil, err
	}

	// Spill lives next to the checkpoints when there are any (the default
	// temp dir may be a RAM-backed tmpfs, which would defeat the
	// bounded-memory goal); otherwise a fresh temp dir. Removed in full on
	// every exit.
	var spillDir string
	if opts.CheckpointDir != "" {
		spillDir = filepath.Join(opts.CheckpointDir, spillDirName)
		if err := os.MkdirAll(spillDir, 0o755); err != nil {
			return nil, nil, err
		}
	} else if spillDir, err = os.MkdirTemp("", "galactos-spill-*"); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(spillDir)

	// spill scatters the source into the files of every slab skip leaves
	// writable, restarting the whole pass on a transient failure (re-created
	// files truncate, so a torn pass leaves no residue).
	spill := func(op string, skip []bool) (owned, halo []int, err error) {
		err = retry.Policy{}.Do(ctx, op, func() (err error) {
			owned, halo, err = spillSlabs(ctx, src, plan, cfg.RMax, spillDir, skip)
			return err
		})
		return owned, halo, err
	}
	owned, halo, err := spill("slab spill", skip)
	if err != nil {
		return nil, nil, err
	}

	total := core.NewResult(cfg.LMax, bins)
	stats := make([]UnitStats, opts.NShards)
	for i := range stats {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		stats[i] = UnitStats{Unit: i, NOwned: owned[i], NHalo: halo[i]}
		var partial *core.Result
		if skip[i] { // validated by the resume pass in all but its owned count
			partial, stats[i].Resumed = loadCheckpoint(opts.CheckpointDir, i, opts.NShards, bins, cfg.LMax, owned[i], logf)
		}
		if stats[i].Resumed {
			stats[i].Pairs = partial.Pairs
			logf("shard %d/%d: resumed from checkpoint (%d primaries, %d pairs)",
				i, opts.NShards, partial.NPrimaries, partial.Pairs)
		} else {
			if skip[i] {
				// The pre-validated checkpoint failed the primary-count
				// revalidation: it was written by a run with a different slab
				// decomposition (possible only across code versions — the plan
				// is otherwise deterministic). Its records were skipped by the
				// spill pass, so degrade like every other unusable checkpoint:
				// one more pass that writes this slab alone, then recompute.
				logf("shard %d/%d: re-spilling slab", i, opts.NShards)
				only := make([]bool, opts.NShards)
				for j := range only {
					only[j] = j != i
				}
				if _, _, err := spill("slab re-spill", only); err != nil {
					return nil, nil, fmt.Errorf("shard %d/%d: %w", i, opts.NShards, err)
				}
			}
			if partial, err = computeSlab(ctx, plan, &stats[i], spillDir, bins, cfg, opts, logf); err != nil {
				return nil, nil, fmt.Errorf("shard %d/%d: %w", i, opts.NShards, err)
			}
		}
		if err := total.Merge(partial); err != nil {
			return nil, nil, fmt.Errorf("shard: merging shard %d: %w", i, err)
		}
	}
	return finish(total, stats)
}

// scanCheckpoints makes the single resume pass over the slab checkpoints:
// valid[i] records which slabs hold a loadable, configuration-matching
// checkpoint, and when every slab does and the primary counts cover the
// catalog exactly, the merged total and stats are returned with all=true
// (the no-re-spill fast path). Otherwise the caller falls back to the
// plan/spill path, which counts — but does not rewrite — the valid slabs and
// revalidates each against its owned count.
func scanCheckpoints(sc *sourceScan, bins hist.Binning, cfg core.Config, opts Options, logf func(string, ...any)) (*core.Result, []UnitStats, []bool, bool) {
	total := core.NewResult(cfg.LMax, bins)
	stats := make([]UnitStats, opts.NShards)
	valid := make([]bool, opts.NShards)
	all := true
	primaries := 0
	for i := range valid {
		res, ok := loadCheckpoint(opts.CheckpointDir, i, opts.NShards, bins, cfg.LMax, -1, logf)
		if !ok {
			all = false
			continue
		}
		valid[i] = true
		primaries += res.NPrimaries
		stats[i] = UnitStats{
			Unit:    i,
			NOwned:  res.NPrimaries,
			NHalo:   res.NGalaxies - res.NPrimaries,
			Pairs:   res.Pairs,
			Resumed: true,
		}
		if all && total.Merge(res) != nil {
			all = false
		}
	}
	return total, stats, valid, all && primaries == sc.n
}

// computeSlab produces one slab's partial result from its spill files (st
// names the slab and its record counts, and receives the pair count and
// compute wall clock), persisting it when the run checkpoints.
func computeSlab(ctx context.Context, plan *slabPlan, st *UnitStats, spillDir string, bins hist.Binning, cfg core.Config, opts Options, logf func(string, ...any)) (*core.Result, error) {
	// A slab with no primaries contributes nothing: skip the engine and
	// emit an empty partial so checkpoint bookkeeping stays uniform.
	res := core.NewResult(cfg.LMax, bins)
	if st.NOwned > 0 {
		start := time.Now()
		local := &catalog.Catalog{
			Box:      plan.box, // slab coordinates are unshifted: keep the wrap
			Galaxies: make([]catalog.Galaxy, 0, st.NOwned+st.NHalo),
		}
		var err error
		if local.Galaxies, err = readSpill(ctx, spillPath(spillDir, st.Unit, "own"), st.NOwned, local.Galaxies); err != nil {
			return nil, err
		}
		if local.Galaxies, err = readSpill(ctx, spillPath(spillDir, st.Unit, "halo"), st.NHalo, local.Galaxies); err != nil {
			return nil, err
		}
		primary := make([]bool, local.Len())
		for j := 0; j < st.NOwned; j++ {
			primary[j] = true
		}
		if res, err = core.ComputeSubsetContext(ctx, local, primary, cfg); err != nil {
			return nil, err
		}
		st.Pairs = res.Pairs
		st.Elapsed = time.Since(start)
		logf("shard %d/%d: computed %d primaries + %d halo in %v (%d pairs)",
			st.Unit, opts.NShards, st.NOwned, st.NHalo, st.Elapsed.Round(time.Millisecond), res.Pairs)
	}
	if opts.CheckpointDir != "" {
		if err := saveCheckpoint(ctx, checkpointPath(opts.CheckpointDir, st.Unit, opts.NShards), res); err != nil {
			return nil, fmt.Errorf("checkpointing: %w", err)
		}
	}
	return res, nil
}

// loadCheckpoint returns slab i's checkpointed partial if it exists, loads
// cleanly (the format rejects truncation and corruption), and matches the
// run's multipole shape and — once the spill pass has counted it, nOwned >=
// 0 — the slab's primary count. Any mismatch means recompute, not failure: a
// killed run may leave arbitrary debris.
func loadCheckpoint(dir string, i, nshards int, bins hist.Binning, lmax, nOwned int, logf func(string, ...any)) (*core.Result, bool) {
	res, err := core.LoadResult(checkpointPath(dir, i, nshards))
	if err == nil {
		err = fpCkptLoad.Inject()
	}
	if err != nil {
		if !os.IsNotExist(err) {
			logf("shard %d/%d: discarding unusable checkpoint: %v", i, nshards, err)
		}
		return nil, false
	}
	if res.LMax != lmax || res.Bins != bins || (nOwned >= 0 && res.NPrimaries != nOwned) {
		logf("shard %d/%d: checkpoint does not match this run; recomputing", i, nshards)
		return nil, false
	}
	return res, true
}

// finishCheckpoints removes run state that must not outlive a successful
// merge: spill scratch always (a kill can strand it under the checkpoint
// dir), and the per-slab checkpoints plus manifest unless the caller asked
// to keep them.
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

const manifestName = "manifest.json"

// parseManifest decodes a manifest file, refusing any version but the
// current one: fields mean what this build says they mean only at its own
// version.
func parseManifest(data []byte) (manifest, error) {
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return manifest{}, fmt.Errorf("unreadable %s (%v)", manifestName, err)
	}
	if m.Version != manifestVersion {
		return manifest{}, fmt.Errorf("%s is version %d, this build writes version %d", manifestName, m.Version, manifestVersion)
	}
	return m, nil
}

// prepareDir creates the checkpoint directory, clears the temp files of
// checkpoint and manifest writes killed mid-write (the atomic rename never
// happened, so only debris with the .tmp suffix pattern can remain) and
// reconciles the manifest: a resume must find a manifest describing this
// exact run (or none, for a run killed before the manifest was written); a
// fresh run overwrites.
func prepareDir(dir string, want manifest, resume bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, pattern := range []string{"shard-*.gres.tmp*", manifestName + ".tmp*"} {
		stale, _ := filepath.Glob(filepath.Join(dir, pattern))
		for _, p := range stale {
			os.Remove(p)
		}
	}
	path := filepath.Join(dir, manifestName)
	if resume {
		data, err := os.ReadFile(path)
		if err == nil {
			got, err := parseManifest(data)
			if err == nil && got != want {
				err = fmt.Errorf("manifest mismatch")
			}
			if err != nil {
				return fmt.Errorf("shard: checkpoint dir %s belongs to a different run (%v); remove it or drop Resume", dir, err)
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
	// Atomically: a kill mid-write must not leave a torn manifest, which
	// every later resume of the directory would refuse.
	return core.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// checkpointPath names slab i's partial-Result file.
func checkpointPath(dir string, i, nshards int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d-of-%04d.gres", i, nshards))
}
