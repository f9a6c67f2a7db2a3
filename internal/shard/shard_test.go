package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"galactos/internal/catalog"
	"galactos/internal/core"
	"galactos/internal/geom"
)

// compute runs the pipeline over an in-memory catalog: a memory source takes
// the same scan/plan/spill path as a file.
func compute(cat *catalog.Catalog, cfg core.Config, opts Options) (*core.Result, []UnitStats, error) {
	return Compute(context.Background(), catalog.NewMemorySource(cat), cfg, opts)
}

func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.RMax = 40
	cfg.NBins = 4
	cfg.LMax = 3
	cfg.Workers = 2
	return cfg
}

// requireMatches checks the acceptance property: the sharded multipoles
// (anisotropic channels and derived isotropic multipoles) agree with the
// single-shot result within 1e-9 relative tolerance, and the integer
// counters agree exactly. The tolerance is relative to the largest channel,
// floored at SumWeight/4pi — the size of a diagonal element when every
// primary sees one unit-weight neighbour (w_i |Y_00|^2 per primary) before
// SelfCount subtracts it. A catalog too sparse for any triangle leaves only
// that subtraction's rounding residue (~1e-16), and a tolerance relative to
// the residue would compare noise to noise.
func requireMatches(t *testing.T, label string, got, single *core.Result) {
	t.Helper()
	if got.NPrimaries != single.NPrimaries {
		t.Errorf("%s: %d primaries, want %d", label, got.NPrimaries, single.NPrimaries)
	}
	if got.NGalaxies != single.NGalaxies {
		t.Errorf("%s: %d galaxies, want %d", label, got.NGalaxies, single.NGalaxies)
	}
	if got.Pairs != single.Pairs {
		t.Errorf("%s: %d pairs, want %d", label, got.Pairs, single.Pairs)
	}
	if math.Abs(got.SumWeight-single.SumWeight) > 1e-9*math.Abs(single.SumWeight) {
		t.Errorf("%s: weight %v, want %v", label, got.SumWeight, single.SumWeight)
	}
	scale := math.Max(single.MaxAbs(), single.SumWeight/(4*math.Pi))
	if d := got.MaxAbsDiff(single); d > 1e-9*scale {
		t.Errorf("%s: aniso channels differ from single shot by %v (scale %v)", label, d, scale)
	}
	for l := 0; l <= single.LMax; l++ {
		for b1 := 0; b1 < single.Bins.N; b1++ {
			for b2 := 0; b2 < single.Bins.N; b2++ {
				g, w := got.IsoZeta(l, b1, b2), single.IsoZeta(l, b1, b2)
				if math.Abs(g-w) > 1e-9*scale {
					t.Fatalf("%s: iso zeta_%d(%d,%d) = %v, want %v", label, l, b1, b2, g, w)
				}
			}
		}
	}
}

func TestShardedMatchesSingleShotPeriodic(t *testing.T) {
	cat := catalog.Clustered(900, 180, catalog.DefaultClusterParams(), 31)
	cfg := testConfig()
	single, err := core.Compute(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, nshards := range []int{1, 2, 4, 5, 8} {
		got, stats, err := compute(cat, cfg, Options{NShards: nshards})
		if err != nil {
			t.Fatalf("nshards=%d: %v", nshards, err)
		}
		requireMatches(t, "sharded", got, single)
		owned := 0
		for _, s := range stats {
			owned += s.NOwned
		}
		if owned != cat.Len() {
			t.Errorf("nshards=%d: shards own %d galaxies, want %d", nshards, owned, cat.Len())
		}
	}
}

func TestShardedMatchesSingleShotOpenBoundaries(t *testing.T) {
	// A survey-like geometry: no periodic wrap, weights not all 1.
	src := catalog.Clustered(700, 150, catalog.DefaultClusterParams(), 5)
	cat := &catalog.Catalog{Galaxies: src.Galaxies}
	for i := range cat.Galaxies {
		cat.Galaxies[i].Weight = 1 + 0.25*math.Sin(float64(i))
	}
	cfg := testConfig()
	cfg.LOS = core.LOSRadial
	single, err := core.Compute(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := compute(cat, cfg, Options{NShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	requireMatches(t, "sharded open", got, single)
}

func TestShardedCheckpointMatchesInMemory(t *testing.T) {
	cat := catalog.Clustered(600, 160, catalog.DefaultClusterParams(), 13)
	cfg := testConfig()
	mem, _, err := compute(cat, cfg, Options{NShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	chk, _, err := compute(cat, cfg, Options{NShards: 4, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Checkpointing only writes each partial on its way to the merge: the
	// merged results are bitwise equal.
	if d := chk.MaxAbsDiff(mem); d != 0 {
		t.Errorf("checkpointed result differs from in-memory by %v", d)
	}
	// Default is cleanup after a successful merge.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("checkpoint dir still has %d entries after success", len(entries))
	}
}

// TestResumeAfterKill simulates a run killed partway through: only some
// shard checkpoints (plus the manifest) survive. Rerunning into the
// directory must load those, compute only the missing shards, and produce a
// result identical to an uninterrupted run.
func TestResumeAfterKill(t *testing.T) {
	cat := catalog.Clustered(600, 160, catalog.DefaultClusterParams(), 17)
	cfg := testConfig()
	const nshards = 4

	fullDir := t.TempDir()
	full, _, err := compute(cat, cfg, Options{NShards: nshards, CheckpointDir: fullDir, Keep: true})
	if err != nil {
		t.Fatal(err)
	}

	// "Kill": a directory holding the manifest and the first two shards.
	killedDir := t.TempDir()
	for _, name := range []string{
		manifestName,
		filepath.Base(checkpointPath(fullDir, 0, nshards)),
		filepath.Base(checkpointPath(fullDir, 1, nshards)),
	} {
		data, err := os.ReadFile(filepath.Join(fullDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(killedDir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	resumed, stats, err := compute(cat, cfg, Options{NShards: nshards, CheckpointDir: killedDir})
	if err != nil {
		t.Fatal(err)
	}
	if d := resumed.MaxAbsDiff(full); d != 0 {
		t.Errorf("resumed result differs from uninterrupted run by %v", d)
	}
	if resumed.NPrimaries != full.NPrimaries || resumed.Pairs != full.Pairs ||
		resumed.SumWeight != full.SumWeight {
		t.Errorf("resumed counters differ: %+v vs %+v",
			[3]any{resumed.NPrimaries, resumed.Pairs, resumed.SumWeight},
			[3]any{full.NPrimaries, full.Pairs, full.SumWeight})
	}
	for i, s := range stats {
		wantResumed := i < 2
		if s.Resumed != wantResumed {
			t.Errorf("shard %d: resumed = %v, want %v", i, s.Resumed, wantResumed)
		}
	}
}

func TestStaleTempCheckpointsRemoved(t *testing.T) {
	cat := catalog.Clustered(300, 140, catalog.DefaultClusterParams(), 37)
	cfg := testConfig()
	dir := t.TempDir()
	// Debris from a run killed inside SaveResult or the manifest write
	// (the rename never happened).
	stale := []string{
		filepath.Join(dir, "shard-0001-of-0002.gres.tmp12345"),
		filepath.Join(dir, manifestName+".tmp67890"),
	}
	for _, p := range stale {
		if err := os.WriteFile(p, []byte("partial write"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := compute(cat, cfg, Options{NShards: 2, CheckpointDir: dir}); err != nil {
		t.Fatal(err)
	}
	for _, p := range stale {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("stale temp file %s survived the run (stat err = %v)", filepath.Base(p), err)
		}
	}
}

// requireFreshStart runs src into opts.CheckpointDir, which holds another
// run's checkpoints, and requires the run to start fresh: a progress line
// saying so that names why, no part resumed, and the bits of the same run
// into an empty directory.
func requireFreshStart(t *testing.T, label string, src catalog.Source, cfg core.Config, opts Options, why string) {
	t.Helper()
	var lines []string
	var mu sync.Mutex
	opts.Log = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	got, stats, err := Compute(context.Background(), src, cfg, opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	fresh := false
	for _, line := range lines {
		fresh = fresh || strings.Contains(line, "starting fresh") && strings.Contains(line, why)
	}
	if !fresh {
		t.Errorf("%s: no line says the run started fresh because of %q:\n%s", label, why, strings.Join(lines, "\n"))
	}
	for _, s := range stats {
		if s.Resumed {
			t.Errorf("%s: part %d resumed from another run's checkpoint", label, s.Unit)
		}
	}
	want, _, err := Compute(context.Background(), src, cfg, Options{NShards: opts.NShards, CheckpointDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if g, w := resultHash(got), resultHash(want); g != w {
		t.Errorf("%s: hash %s, a fresh run's %s", label, g, w)
	}
}

// TestForeignManifestStartsFresh: the manifest pins the config by its
// Fingerprint, so a rerun under a config that moves the answer starts
// fresh, and one that moves only a field no line of sight reads — the
// observer of a plane-parallel run — resumes every part to the same bits. A
// version-3 directory, whose slab partials can own as many galaxies as a
// part, starts fresh under the same config.
func TestForeignManifestStartsFresh(t *testing.T) {
	cat := catalog.Clustered(300, 140, catalog.DefaultClusterParams(), 23)
	src := catalog.NewMemorySource(cat)
	moved := geom.Vec3{X: -300, Y: 50, Z: 20}
	for _, tc := range []struct {
		name    string
		los     core.LOSMode
		mutate  func(*core.Config)
		resumes bool
	}{
		{"lmax", core.LOSPlaneParallel, func(c *core.Config) { c.LMax++ }, false},
		{"plane-parallel observer", core.LOSPlaneParallel, func(c *core.Config) { c.Observer = moved }, true},
		{"radial observer", core.LOSRadial, func(c *core.Config) { c.Observer = moved }, false},
	} {
		cfg := testConfig()
		cfg.LOS = tc.los
		dir := t.TempDir()
		first, _, err := compute(cat, cfg, Options{NShards: 2, CheckpointDir: dir, Keep: true})
		if err != nil {
			t.Fatal(err)
		}
		other := cfg
		tc.mutate(&other)
		if !tc.resumes {
			requireFreshStart(t, tc.name, src, other, Options{NShards: 2, CheckpointDir: dir}, "another run")
			continue
		}
		got, stats, err := compute(cat, other, Options{NShards: 2, CheckpointDir: dir})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, s := range stats {
			if !s.Resumed {
				t.Errorf("%s: part %d recomputed despite a matching checkpoint", tc.name, s.Unit)
			}
		}
		if got.Pairs != first.Pairs || got.MaxAbsDiff(first) != 0 {
			t.Errorf("%s: resumed result differs from the checkpointed run: pairs %d vs %d, max |diff| %v",
				tc.name, got.Pairs, first.Pairs, got.MaxAbsDiff(first))
		}
	}

	cfg := testConfig()
	dir := t.TempDir()
	if _, _, err := compute(cat, cfg, Options{NShards: 2, CheckpointDir: dir, Keep: true}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	v3 := strings.Replace(string(data), fmt.Sprintf(`"version": %d`, manifestVersion), `"version": 3`, 1)
	if err := os.WriteFile(path, []byte(v3), 0o644); err != nil {
		t.Fatal(err)
	}
	requireFreshStart(t, "version-3 directory", src, cfg, Options{NShards: 2, CheckpointDir: dir}, "version 3")
}

// TestAnotherCatalogStartsFresh: the manifest pins the catalog by its
// content hash, so a rerun of the same catalog read from its file (the hash
// addresses content, not representation) reuses every part, and a run of
// another catalog with the same galaxy count, box side and total weight —
// all a version-4 manifest compared — starts fresh instead of merging the
// first catalog's partials.
func TestAnotherCatalogStartsFresh(t *testing.T) {
	cfg := testConfig()
	first := catalog.Uniform(500, 160, 1)
	other := catalog.Uniform(500, 160, 2)
	if first.TotalWeight() != other.TotalWeight() {
		t.Fatal("fixture catalogs differ in total weight")
	}
	dir := t.TempDir()
	want, _, err := compute(first, cfg, Options{NShards: 3, CheckpointDir: dir, Keep: true})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "first.glxc")
	if err := catalog.Save(path, first); err != nil {
		t.Fatal(err)
	}
	got, stats, err := Compute(context.Background(), catalog.NewFileSource(path), cfg, Options{NShards: 3, CheckpointDir: dir, Keep: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stats {
		if !s.Resumed {
			t.Errorf("part %d recomputed despite its checkpoint", s.Unit)
		}
	}
	if d := got.MaxAbsDiff(want); d != 0 {
		t.Errorf("resumed result differs by %v", d)
	}
	requireFreshStart(t, "another catalog of equal N, L and total weight", catalog.NewMemorySource(other), cfg,
		Options{NShards: 3, CheckpointDir: dir}, "another run")
}

// TestReusedCheckpointDirNeverMergesAnotherRun: a run into a directory that
// holds another run's kept checkpoints deletes them before it writes its
// own manifest, so when it is cancelled after its first part, its rerun
// resumes that part alone and equals a fresh run bit for bit — it never
// merges the parts the other run left, whether that run read another
// catalog of the same size or the same positions under other weights (the
// same part plan and counts, so only the manifest tells them apart).
// Rerunning into a kept directory of the same run resumes every part to the
// same bits.
func TestReusedCheckpointDirNeverMergesAnotherRun(t *testing.T) {
	cfg := streamConfig()
	first := catalog.Clustered(700, 160, catalog.DefaultClusterParams(), 61)
	reweighted := &catalog.Catalog{Box: first.Box, Galaxies: slices.Clone(first.Galaxies)}
	for i := range reweighted.Galaxies {
		reweighted.Galaxies[i].Weight = 1 + 0.5*math.Sin(float64(i))
	}
	for _, tc := range []struct {
		name string
		next *catalog.Catalog
	}{
		{"another-catalog", catalog.Clustered(700, 160, catalog.DefaultClusterParams(), 62)},
		{"other-weights", reweighted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if _, _, err := compute(first, cfg, Options{NShards: 3, CheckpointDir: dir, Keep: true}); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			_, _, err := Compute(ctx, catalog.NewMemorySource(tc.next), cfg, Options{
				NShards: 3, CheckpointDir: dir,
				Log: func(format string, args ...any) {
					if strings.Contains(format, "computed") {
						cancel()
					}
				},
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("overwriting run returned %v, want context.Canceled", err)
			}
			got, stats, err := compute(tc.next, cfg, Options{NShards: 3, CheckpointDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range stats {
				if s.Resumed != (s.Unit == 0) {
					t.Errorf("part %d resumed = %v, want part 0 only", s.Unit, s.Resumed)
				}
			}
			want, _, err := compute(tc.next, cfg, Options{NShards: 3})
			if err != nil {
				t.Fatal(err)
			}
			if g, w := resultHash(got), resultHash(want); g != w {
				t.Errorf("rerun hash %s, a fresh run's %s (max |diff| %v)", g, w, got.MaxAbsDiff(want))
			}
		})
	}
	t.Run("same-run", func(t *testing.T) {
		dir := t.TempDir()
		want, _, err := compute(first, cfg, Options{NShards: 3, CheckpointDir: dir, Keep: true})
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := compute(first, cfg, Options{NShards: 3, CheckpointDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range stats {
			if !s.Resumed {
				t.Errorf("part %d recomputed despite its kept checkpoint", s.Unit)
			}
		}
		if g, w := resultHash(got), resultHash(want); g != w {
			t.Errorf("resumed hash %s, the kept run's %s", g, w)
		}
	})
}

// TestMergeAssociativity merges the same shard partials under different
// groupings; every grouping must agree with single-shot Compute within the
// acceptance tolerance (floating-point addition makes bitwise equality
// across groupings too strong, but the physics must not depend on the
// reduction tree).
func TestMergeAssociativity(t *testing.T) {
	cat := catalog.Clustered(800, 170, catalog.DefaultClusterParams(), 29)
	cfg := testConfig()
	single, err := core.Compute(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	parts := partResults(t, cat, 4, cfg)
	groupings := [][][]int{
		{{0}, {1}, {2}, {3}},
		{{0, 1}, {2, 3}},
		{{0, 1, 2}, {3}},
		{{3, 2, 1, 0}},
	}
	for gi, grouping := range groupings {
		total := core.NewResult(cfg.LMax, single.Bins)
		for _, group := range grouping {
			sub := core.NewResult(cfg.LMax, single.Bins)
			for _, i := range group {
				if err := sub.Merge(parts[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := total.Merge(sub); err != nil {
				t.Fatal(err)
			}
		}
		total.NGalaxies = cat.Len()
		requireMatches(t, "grouping "+string(rune('A'+gi)), total, single)
	}
}

// partResults returns the per-part partial results of a real run: the
// checkpoints Compute wrote, so the groupings above exercise real shard
// outputs.
func partResults(t *testing.T, cat *catalog.Catalog, nshards int, cfg core.Config) []*core.Result {
	t.Helper()
	dir := t.TempDir()
	if _, _, err := compute(cat, cfg, Options{NShards: nshards, CheckpointDir: dir, Keep: true}); err != nil {
		t.Fatal(err)
	}
	out := make([]*core.Result, nshards)
	for i := range out {
		res, err := core.LoadResult(checkpointPath(dir, i, nshards))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = res
	}
	return out
}

func TestOptionsValidation(t *testing.T) {
	cat := catalog.Uniform(50, 100, 1)
	cfg := testConfig()
	if _, _, err := compute(cat, cfg, Options{NShards: 0}); err == nil {
		t.Error("NShards = 0 accepted")
	}
	if _, _, err := Compute(context.Background(), nil, cfg, Options{NShards: 2}); err == nil {
		t.Error("nil source accepted")
	}
	if _, _, err := compute(nil, cfg, Options{NShards: 2}); err == nil {
		t.Error("nil catalog accepted")
	}
	if _, _, err := compute(&catalog.Catalog{}, cfg, Options{NShards: 2}); err == nil {
		t.Error("empty catalog accepted")
	}
	big := cfg
	big.RMax = 60 // >= half the periodic box
	if _, _, err := compute(cat, big, Options{NShards: 2}); err == nil {
		t.Error("RMax >= L/2 accepted")
	}
}

func TestMoreShardsThanGalaxies(t *testing.T) {
	cat := catalog.Uniform(6, 120, 3)
	cfg := testConfig()
	single, err := core.Compute(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := compute(cat, cfg, Options{NShards: 10})
	if err != nil {
		t.Fatal(err)
	}
	requireMatches(t, "sparse", got, single)
}
