// Package shard implements the out-of-core sharded 3PCF pipeline: the
// single-machine analogue of the paper's Sec. 3.2/3.3 scale-out strategy
// (partition spatially, pad with halo copies within RMax, compute each piece
// alone, reduce the partial multipoles). Where the paper gives every piece its
// own MPI rank — all rank-local state resident at once — Compute streams a
// catalog.Source through its passes (count / bounds / weight, one histogram
// pass per level of the paper's k-d cut tree (partition.Cut), a spill pass
// that scatters every galaxy into per-part record files: owned, plus halo
// membership for every part within RMax of it, periodic wrap included) and
// then computes one part at a time, preparing the next part (its spill files
// read, its engine built) and writing the previous part's checkpoint while
// it runs. Peak memory is two parts resident — the one computing and the
// next, each its galaxies plus halo in an engine — plus one decode block
// shared by every pass, one block that reads back every spill file and one
// fixed spill-buffer budget shared by every spill file being written,
// whatever the catalog's size, the shard count and wherever the catalog
// lives — a memory source takes the same path. Part catalogs keep the
// source's periodic box and unshifted coordinates, so the engine's own image
// handling covers the wrap and every primary sees exactly the neighbour set
// (and line of sight) of a single-shot run. Each part's partial core.Result
// can be checkpointed in the binary format of core.WriteResult, and a run
// into a checkpoint directory whose manifest names the same run resumes it:
// parts with a valid checkpoint are loaded instead of recomputed, and the
// deterministic plan plus fixed merge order make the resumed result
// identical to an uninterrupted one. See DESIGN.md, "shard".
package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"galactos/internal/catalog"
	"galactos/internal/core"
	"galactos/internal/faultpoint"
	"galactos/internal/geom"
	"galactos/internal/hist"
	"galactos/internal/partition"
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

// saveCheckpoint persists one part's partial with bounded retries: the
// atomic temp-file-plus-rename write makes each attempt all-or-nothing.
// Cancellation is deliberately detached: a part whose compute finished as
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
	// NShards is the number of parts (>= 1).
	NShards int
	// CheckpointDir, when non-empty, is created if needed and receives one
	// binary partial-Result file per part, a manifest.json recording the
	// run's identity, and the spill scratch (the disk the operator chose for
	// this run's state; without it the spill goes to a fresh temp dir). A
	// directory whose manifest names this run is resumed: its valid part
	// checkpoints are loaded instead of recomputed. Any other directory is
	// started fresh, its part checkpoints deleted first.
	CheckpointDir string
	// Keep retains the per-part checkpoint files after a successful merge
	// (by default they are removed once the merged result exists).
	Keep bool
	// Log, when non-nil, receives one progress line per part event.
	Log func(format string, args ...any)
}

// UnitStats reports one execution unit's share of the work: a part here,
// or the single engine run of a local run (exec). It feeds the load-balance
// analysis of Sec. 5.2/5.3 (the paper observed ~25% imbalance in weak
// scaling and up to 60% pair-count variation in strong scaling).
type UnitStats struct {
	// Unit is the unit index (the part index in cut order).
	Unit int
	// NOwned and NHalo count the unit's primaries and halo copies.
	NOwned, NHalo int
	// Pairs is the unit's kernel pair count.
	Pairs uint64
	// Elapsed is the unit's compute wall clock (0 when resumed). For a part
	// it is the part's preparation (spill read and engine build) plus its
	// engine run, each timed on the goroutine that does it, so the time the
	// compute loop waits for a preparation is not in it; the parts'
	// preparations overlap their predecessors' runs in wall time.
	Elapsed time.Duration
	// Resumed marks parts restored from a checkpoint instead of computed.
	Resumed bool
}

// manifest pins a checkpoint directory to one (catalog, config, part count)
// so a resume cannot silently merge partials from a different run. The
// catalog is pinned by its content hash (catalog.Hash's digest, taken in the
// scan pass) and the config by core.Config.Fingerprint: the pair the service
// cache key and journal use too.
type manifest struct {
	Version           int    `json:"version"`
	NShards           int    `json:"nshards"`
	CatalogHash       string `json:"catalog_hash"`
	ConfigFingerprint string `json:"config_fingerprint"`
}

// manifestVersion 5 pins the catalog by its content hash. Version 4 pinned
// it by galaxy count, box side and total weight, which another catalog can
// share, so a resume merged that catalog's partials without an error.
// Version 4 also marked partials of k-d parts (partition.Cut); version 3
// held slab partials, version 2 copied the science fields by hand and
// version 1 described an older k-d pipeline. A directory of an older
// version is another run's: it is started fresh, never merged (older
// checkpoints cannot be converted).
const manifestVersion = 5

func newManifest(catHash string, cfg core.Config, nshards int) (manifest, error) {
	fp, err := cfg.Fingerprint()
	return manifest{
		Version:           manifestVersion,
		NShards:           nshards,
		CatalogHash:       catHash,
		ConfigFingerprint: fp,
	}, err
}

// Compute runs the sharded pipeline over a catalog source: scan, plan,
// spill, then one part at a time through the node-local engine, optional
// checkpointing, and the deterministic in-order merge (the next part is
// prepared and the last checkpoint written while a part runs; see
// pipeline). The merged
// multipoles agree with a single-shot run to floating-point rounding
// (identical pair sets, different accumulation order); stats are returned
// in part order. Cancelling ctx stops the pipeline promptly with ctx.Err():
// no new part starts and the running engine abandons its work at the next
// commit unit. Checkpoints of parts that completed before the
// cancellation stay on disk (along with the manifest), so rerunning a
// cancelled checkpointed run resumes it exactly like a killed one. Compute
// returns only once the checkpoint write and the preparation in flight, if
// any, have finished, on every exit.
func Compute(ctx context.Context, src catalog.Source, cfg core.Config, opts Options) (*core.Result, []UnitStats, error) {
	if src == nil {
		return nil, nil, fmt.Errorf("shard: nil catalog source")
	}
	if opts.NShards <= 0 {
		return nil, nil, fmt.Errorf("shard: NShards %d must be positive", opts.NShards)
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
	s := newStream(src, opts.NShards)
	// Pass 1 (catalog.Scan) also learns the catalog's identity when the
	// run checkpoints.
	var sc *catalog.Summary
	err = retry.Policy{}.Do(ctx, "catalog scan", func() (err error) {
		sc, err = catalog.Scan(ctx, src, s.block, opts.CheckpointDir != "")
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	if sc.N == 0 {
		return nil, nil, fmt.Errorf("shard: empty catalog source")
	}
	if sc.Box.L > 0 && cfg.RMax >= sc.Box.L/2 {
		return nil, nil, fmt.Errorf("shard: RMax %v must be below half the periodic box %v", cfg.RMax, sc.Box.L)
	}

	// The manifest decides whether the directory's part checkpoints are this
	// run's to resume; a directory of another run loses them here.
	var resume bool
	if opts.CheckpointDir != "" {
		m, err := newManifest(sc.Hash, cfg, opts.NShards)
		if err == nil {
			resume, err = prepareDir(opts.CheckpointDir, m, logf)
		}
		if err != nil {
			return nil, nil, err
		}
	}

	var plan *partition.Plan
	err = retry.Policy{}.Do(ctx, "part plan", func() (err error) {
		plan, err = s.plan(ctx, sc, opts.NShards)
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

	// The spill scatters the source into every part's files, restarting the
	// whole pass on a transient failure (re-created files truncate, so a
	// torn pass leaves no residue). A resumed part is spilled too: its
	// checkpoint is checked against the counts, and its spill is what the
	// part is computed from if the checkpoint fails.
	var owned, halo []int
	err = retry.Policy{}.Do(ctx, "part spill", func() (err error) {
		owned, halo, err = s.spillParts(ctx, plan, cfg.RMax, spillDir, opts.NShards)
		return err
	})
	if err != nil {
		return nil, nil, err
	}

	total := core.NewResult(cfg.LMax, bins)
	stats := make([]UnitStats, opts.NShards)
	for i := range stats {
		stats[i] = UnitStats{Unit: i, NOwned: owned[i], NHalo: halo[i]}
	}
	p := pipeline{s: s, box: sc.Box, spillDir: spillDir, bins: bins, cfg: cfg, opts: opts, resume: resume, logf: logf}
	if err := p.run(ctx, total, stats); err != nil {
		return nil, nil, err
	}
	// Each partial counts its own halo copies in NGalaxies, where the
	// merged result describes the whole catalog.
	total.NGalaxies = sc.N
	finishCheckpoints(opts)
	return total, stats, nil
}

// pipeline computes the spilled parts in part order through two stages
// that overlap the engine: while part i runs, part i+1 is prepared on a
// second goroutine (its checkpoint loaded, or its spill files read and its
// engine built), and part i-1's checkpoint is written on a third.
// The look-ahead is one part, so two parts are resident at a time, and the
// merge runs in part order, so the overlap moves no result bit.
type pipeline struct {
	s        *stream
	box      geom.Periodic
	spillDir string
	bins     hist.Binning
	cfg      core.Config
	opts     Options
	resume   bool // the checkpoint directory's manifest is this run's
	logf     func(string, ...any)
}

// part is one part as the prepare stage hands it to the compute loop: an
// engine to run, or the partial of a resumed part or of one with no
// primaries.
type part struct {
	eng     *core.Engine
	res     *core.Result
	resumed bool          // res was loaded from the part's checkpoint
	took    time.Duration // the preparation's wall clock
}

// run drives the parts through the stages, filling stats[i] beside each
// part's merge into total. Cancelling ctx stops it before the next part
// runs, or inside the running engine at its next commit unit.
func (p *pipeline) run(ctx context.Context, total *core.Result, stats []UnitStats) (err error) {
	n := len(stats)
	var next part                    // the latest preparation's output
	var prepared, saved <-chan error // the stages in flight, nil when idle
	// Every exit waits for both stages. A checkpoint write in flight lands
	// even when the run fails or is cancelled — that is what makes a
	// cancelled run resumable — and no preparation outlives Compute, whose
	// exit removes the spill files it reads.
	defer func() {
		if prepared != nil {
			<-prepared
		}
		if saved != nil {
			if serr := <-saved; err == nil {
				err = serr
			}
		}
	}()
	prepare := func(i int) {
		st := stats[i]
		prepared = spawn(func() (err error) {
			next, err = p.prepare(ctx, st)
			return err
		})
	}
	prepare(0)
	for i := range stats {
		perr := <-prepared
		prepared = nil
		if err := ctx.Err(); err != nil {
			return err
		}
		if perr != nil {
			return fmt.Errorf("shard %d/%d: %w", i, n, perr)
		}
		// Taken before part i+1's preparation overwrites next; part i's
		// engine goes with this iteration, before part i+2's is built.
		pt := next
		if i+1 < n {
			prepare(i + 1)
		}
		res := pt.res
		switch {
		case pt.eng != nil:
			start := time.Now()
			var err error
			if res, err = pt.eng.Run(); err != nil {
				return fmt.Errorf("shard %d/%d: %w", i, n, err)
			}
			stats[i].Pairs = res.Pairs
			stats[i].Elapsed = pt.took + time.Since(start)
			p.logf("shard %d/%d: computed %d primaries + %d halo in %v (%d pairs)",
				i, n, stats[i].NOwned, stats[i].NHalo, stats[i].Elapsed.Round(time.Millisecond), res.Pairs)
		case pt.resumed:
			stats[i].Resumed, stats[i].Pairs = true, res.Pairs
			p.logf("shard %d/%d: resumed from checkpoint (%d primaries, %d pairs)",
				i, n, res.NPrimaries, res.Pairs)
		}
		if p.opts.CheckpointDir != "" && !pt.resumed {
			// One write in flight: part i's starts once part i-1's landed.
			if saved != nil {
				serr := <-saved
				saved = nil
				if serr != nil {
					return serr
				}
			}
			saved = spawn(func() error {
				if err := saveCheckpoint(ctx, checkpointPath(p.opts.CheckpointDir, i, n), res); err != nil {
					return fmt.Errorf("shard %d/%d: checkpointing: %w", i, n, err)
				}
				return nil
			})
		}
		if err := total.Merge(res); err != nil {
			return fmt.Errorf("shard: merging shard %d: %w", i, err)
		}
	}
	return nil
}

// prepare readies part st.Unit for the compute loop: its checkpoint, when
// the run resumes and the checkpoint is valid, or else the part's spill
// files read and its engine built (core.Prepare, which copies what it keeps
// of the part catalog). A part with no primaries skips the engine and gets
// an empty partial counting its halo, so checkpoint bookkeeping stays
// uniform.
func (p *pipeline) prepare(ctx context.Context, st UnitStats) (part, error) {
	start := time.Now()
	if p.resume {
		res, err := p.loadCheckpoint(st)
		if err == nil {
			return part{res: res, resumed: true}, nil
		}
		if !os.IsNotExist(err) {
			p.logf("shard %d/%d: discarding checkpoint: %v", st.Unit, p.opts.NShards, err)
		}
	}
	if st.NOwned == 0 {
		res := core.NewResult(p.cfg.LMax, p.bins)
		res.NGalaxies = st.NHalo
		return part{res: res}, nil
	}
	local, primary, err := p.s.readPart(ctx, p.box, p.spillDir, &st)
	if err != nil {
		return part{}, err
	}
	eng, err := core.Prepare(ctx, local, primary, p.cfg)
	return part{eng: eng, took: time.Since(start)}, err
}

// spawn runs fn on a goroutine of its own and delivers its error, once, on
// the returned channel. A panic in fn is delivered as an error carrying its
// stack, so a stage that panics fails the run as an engine worker's panic
// does, instead of taking down the process past the caller's recovery.
func spawn(fn func() error) <-chan error {
	done := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- fmt.Errorf("panic: %v\n%s", r, debug.Stack())
			}
		}()
		done <- fn()
	}()
	return done
}

// loadCheckpoint returns part st.Unit's checkpointed partial if it exists,
// loads cleanly (the format rejects truncation and corruption), matches the
// run's multipole shape and counts the primaries and halo copies the spill
// pass gave the part. Any error means the part is computed from its spill:
// a killed run may leave arbitrary debris, and the manifest cannot vouch
// for a file another build or an operator put beside it.
func (p *pipeline) loadCheckpoint(st UnitStats) (*core.Result, error) {
	res, err := core.LoadResult(checkpointPath(p.opts.CheckpointDir, st.Unit, p.opts.NShards))
	if err == nil {
		err = fpCkptLoad.Inject()
	}
	switch {
	case err != nil:
	case res.LMax != p.cfg.LMax || res.Bins != p.bins:
		err = fmt.Errorf("checkpoint does not match this run's multipole shape")
	case res.NPrimaries != st.NOwned || res.NGalaxies-res.NPrimaries != st.NHalo:
		err = fmt.Errorf("checkpoint holds %d primaries and %d halo copies, the part %d and %d",
			res.NPrimaries, res.NGalaxies-res.NPrimaries, st.NOwned, st.NHalo)
	}
	return res, err
}

// finishCheckpoints removes run state that must not outlive a successful
// merge: spill scratch always (a kill can strand it under the checkpoint
// dir), and the per-part checkpoints plus manifest unless the caller asked
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
// reports whether the directory's manifest is want: the run resumes. Any
// other directory — no manifest, an unreadable one, another version's or
// another run's — is started fresh: its part checkpoints are deleted before
// want is written, so none of them can be merged under want later, and a
// directory that held either is logged as started fresh.
func prepareDir(dir string, want manifest, logf func(string, ...any)) (bool, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false, err
	}
	for _, pattern := range []string{"shard-*.gres.tmp*", manifestName + ".tmp*"} {
		stale, _ := filepath.Glob(filepath.Join(dir, pattern))
		for _, p := range stale {
			os.Remove(p)
		}
	}
	path := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return false, err
	}
	found := err == nil
	why := fmt.Errorf("no %s", manifestName)
	if found {
		got, err := parseManifest(data)
		if err == nil && got == want {
			return true, nil
		}
		if err == nil {
			err = fmt.Errorf("%s describes another run", manifestName)
		}
		why = err
	}
	stale, err := filepath.Glob(filepath.Join(dir, "shard-*.gres"))
	if err != nil {
		return false, err
	}
	for _, p := range stale {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return false, err
		}
	}
	if found || len(stale) > 0 {
		logf("shard: checkpoint dir %s: %v; starting fresh (%d part checkpoints deleted)", dir, why, len(stale))
	}
	if data, err = json.MarshalIndent(want, "", "  "); err != nil {
		return false, err
	}
	// Atomically: a kill mid-write must not leave a torn manifest, which
	// would start the directory fresh again on the next run.
	return false, core.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// checkpointPath names part i's partial-Result file.
func checkpointPath(dir string, i, nshards int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d-of-%04d.gres", i, nshards))
}
