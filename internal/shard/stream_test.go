package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"galactos/internal/catalog"
	"galactos/internal/core"
	"galactos/internal/geom"
)

func streamConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.RMax = 40
	cfg.NBins = 4
	cfg.LMax = 4
	cfg.Workers = 2
	return cfg
}

// TestStreamMatchesSingleShotOpenBoundaries: k-d cuts over an open-
// boundary (survey-like) catalog reproduce the single-shot result.
func TestStreamMatchesSingleShotOpenBoundaries(t *testing.T) {
	cat := catalog.Clustered(900, 180, catalog.DefaultClusterParams(), 19)
	cat.Box = geom.Periodic{}
	cfg := streamConfig()
	single, err := core.Compute(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := compute(cat, cfg, Options{NShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs != single.Pairs || res.NPrimaries != single.NPrimaries {
		t.Fatalf("counters diverge: pairs %d/%d primaries %d/%d",
			res.Pairs, single.Pairs, res.NPrimaries, single.NPrimaries)
	}
	if d, m := res.MaxAbsDiff(single), single.MaxAbs(); d > 1e-9*m {
		t.Fatalf("multipoles diverge: max |diff| %.3e vs scale %.3e", d, m)
	}
	owned := 0
	for _, s := range stats {
		owned += s.NOwned
	}
	if owned != cat.Len() {
		t.Fatalf("parts own %d galaxies, want %d", owned, cat.Len())
	}
}

// TestStreamPeriodicWrapHalo: a primary near the box face must see its
// wrapped neighbors, which arrive as halo members of the far part — across
// the wrap on each axis. A galaxy exactly RMax from a cut is a halo member
// of the part across it: the halo test may over-include, never under-include.
func TestStreamPeriodicWrapHalo(t *testing.T) {
	cfg := streamConfig()
	cfg.RMax = 30
	for axis, name := range []string{"x", "y", "z"} {
		// Two tight clusters on opposite faces of a periodic box: nearly
		// every pair between them crosses the wrap.
		cat := &catalog.Catalog{Box: geom.Periodic{L: 200}}
		at := func(c float64) geom.Vec3 {
			return geom.Vec3{X: 100, Y: 100, Z: 100}.WithComponent(axis, c)
		}
		for i := 0; i < 40; i++ {
			f := float64(i)
			cat.Galaxies = append(cat.Galaxies,
				catalog.Galaxy{Pos: at(2 + f/50), Weight: 1},
				catalog.Galaxy{Pos: at(198 - f/50), Weight: 1},
			)
		}
		single, err := core.Compute(cat, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := compute(cat, cfg, Options{NShards: 3})
		if err != nil {
			t.Fatal(err)
		}
		if res.Pairs != single.Pairs {
			t.Fatalf("%s: wrap pairs lost: %d vs single-shot %d", name, res.Pairs, single.Pairs)
		}
		if d, m := res.MaxAbsDiff(single), single.MaxAbs(); d > 1e-9*m {
			t.Fatalf("%s: multipoles diverge: max |diff| %.3e vs scale %.3e", name, d, m)
		}
	}

	// Two parts of a uniform box cut across x; a probe exactly RMax below
	// the cut must reach the upper part, one exactly RMax above it the
	// lower part, and one on the cut belongs to the upper part.
	cat := catalog.Uniform(400, 200, 53)
	s := newStream(catalog.NewMemorySource(cat), 2)
	sc, err := catalog.Scan(context.Background(), s.src, s.block, false)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.plan(context.Background(), sc, 2)
	if err != nil {
		t.Fatal(err)
	}
	cut := p.Boxes[0].Max.X
	if cut != p.Boxes[1].Min.X || cut-cfg.RMax+cfg.RMax != cut {
		t.Fatalf("cut %v is not an x cut RMax can be exactly subtracted from", cut)
	}
	for _, probe := range []struct {
		x          float64
		owner, far int
	}{{cut - cfg.RMax, 0, 1}, {cut + cfg.RMax, 1, 0}, {cut, 1, 0}} {
		owner, near := p.Place(geom.Vec3{X: probe.x, Y: 100, Z: 100}, cfg.RMax, nil)
		if owner != probe.owner || len(near) != 1 || near[0] != probe.far {
			t.Errorf("probe at x = %v, cut %v: owner %d, halo of %v, want owner %d, halo of [%d]",
				probe.x, cut, owner, near, probe.owner, probe.far)
		}
	}
}

// TestStreamCheckpointResume: rerunning a full checkpointed streaming run
// into its kept directory resumes every part from its checkpoint.
func TestStreamCheckpointResume(t *testing.T) {
	cat := catalog.Clustered(700, 160, catalog.DefaultClusterParams(), 23)
	cfg := streamConfig()
	dir := t.TempDir()
	src := catalog.NewMemorySource(cat)

	first, _, err := Compute(context.Background(), src, cfg, Options{NShards: 3, CheckpointDir: dir, Keep: true})
	if err != nil {
		t.Fatal(err)
	}
	// A killed run can strand spill scratch under the checkpoint dir; the
	// resume must clean it up.
	if err := os.MkdirAll(filepath.Join(dir, spillDirName), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, spillDirName, "part-0000.own.spill"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, stats, err := Compute(context.Background(), src, cfg, Options{NShards: 3, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stats {
		if !s.Resumed {
			t.Fatalf("shard %d recomputed despite a valid checkpoint", s.Unit)
		}
	}
	if d := res.MaxAbsDiff(first); d != 0 {
		t.Fatalf("resumed result differs from original: max |diff| %.3e", d)
	}
	if _, err := os.Stat(filepath.Join(dir, spillDirName)); !os.IsNotExist(err) {
		t.Fatalf("stranded spill scratch not removed on resume (stat err %v)", err)
	}
}

// TestStreamPartialResume: with one checkpoint missing, the rerun resumes
// the others and recomputes exactly the gap from its spill.
func TestStreamPartialResume(t *testing.T) {
	cat := catalog.Clustered(700, 160, catalog.DefaultClusterParams(), 31)
	cfg := streamConfig()
	dir := t.TempDir()
	src := catalog.NewMemorySource(cat)

	first, _, err := Compute(context.Background(), src, cfg, Options{NShards: 3, CheckpointDir: dir, Keep: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(checkpointPath(dir, 1, 3)); err != nil {
		t.Fatal(err)
	}
	res, stats, err := Compute(context.Background(), src, cfg, Options{NShards: 3, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	recomputed := 0
	for _, s := range stats {
		if !s.Resumed {
			recomputed++
		}
	}
	if recomputed != 1 {
		t.Fatalf("recomputed %d parts, want exactly the deleted one", recomputed)
	}
	if d := res.MaxAbsDiff(first); d != 0 {
		t.Fatalf("partially resumed result differs: max |diff| %.3e", d)
	}
}

// TestStreamForeignCheckpointDirStartsFresh: a directory written at an
// older manifest version starts fresh, with a progress line naming the
// version, and no part of it is merged. Version 2 copied the science fields
// by hand where later versions pin the config's Fingerprint; version 1
// added a "stream" field, written by an older k-d pipeline (false) or by
// the slab pipeline of that build (true).
// With the stream field gone the two decode alike, and either partial can
// share LMax, bins and owned count with a part's, so nothing after the
// manifest would stop the merge.
func TestStreamForeignCheckpointDirStartsFresh(t *testing.T) {
	cat := catalog.Clustered(500, 160, catalog.DefaultClusterParams(), 29)
	cfg := streamConfig()
	dir := t.TempDir()
	if _, _, err := compute(cat, cfg, Options{NShards: 3, CheckpointDir: dir, Keep: true}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, manifestName)
	current, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(current, &m); err != nil {
		t.Fatal(err)
	}
	v2, err := json.MarshalIndent(map[string]any{
		"version": 2, "nshards": m.NShards, "ngalaxies": cat.Len(), "box_l": cat.Box.L, "sum_weight": cat.TotalWeight(),
		"rmax": cfg.RMax, "rmin": cfg.RMin, "nbins": cfg.NBins, "lmax": cfg.LMax, "los": int(cfg.LOS),
		"observer_x": cfg.Observer.X, "observer_y": cfg.Observer.Y, "observer_z": cfg.Observer.Z,
		"self_count": cfg.SelfCount, "isotropic_only": cfg.IsotropicOnly,
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	type foreign struct {
		version    int
		name, data string
	}
	dirs := []foreign{{2, "v2", string(v2)}}
	for _, stream := range []string{"false", "true"} {
		v1 := strings.Replace(string(v2), `"version": 2`, `"version": 1`, 1)
		v1 = strings.Replace(v1, "\n}", ",\n  \"stream\": "+stream+"\n}", 1)
		if !strings.Contains(v1, `"version": 1`) || !strings.Contains(v1, `"stream"`) {
			t.Fatalf("could not derive a version-1 manifest from:\n%s", v2)
		}
		dirs = append(dirs, foreign{1, "v1 stream=" + stream, v1})
	}
	// Each fresh run keeps its checkpoints, so the next foreign manifest
	// sits beside a full set of them again.
	for _, d := range dirs {
		if err := os.WriteFile(path, []byte(d.data), 0o644); err != nil {
			t.Fatal(err)
		}
		requireFreshStart(t, d.name, catalog.NewMemorySource(cat), cfg,
			Options{NShards: 3, CheckpointDir: dir, Keep: true}, fmt.Sprintf("version %d", d.version))
	}
}

// FuzzManifest: the manifest is bytes this build did not necessarily write
// (a run reads whatever an earlier run or an operator left), so the
// loader must answer every input with a manifest of the current version or
// an error — never a panic, never another version's fields taken at this
// version's meaning — and what it accepts must survive a rewrite. The seeds
// hold a version-5 manifest as this build writes it, and version-4 ones
// (this build's fields, and the count/box/weight fields that version had),
// which must be refused.
func FuzzManifest(f *testing.F) {
	cfg := streamConfig()
	cat := catalog.Uniform(700, 160, 1)
	hash, err := catalog.Hash(catalog.NewMemorySource(cat))
	if err != nil {
		f.Fatal(err)
	}
	m, err := newManifest(hash, cfg, 3)
	if err != nil {
		f.Fatal(err)
	}
	written, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	if !bytes.Contains(written, []byte(`"version": 5`)) || !bytes.Contains(written, []byte(`"catalog_hash": "`+hash)) {
		f.Fatalf("this build writes an unexpected manifest:\n%s", written)
	}
	f.Add(written)
	f.Add(written[:len(written)/2])
	f.Add(bytes.Replace(written, []byte(`"version": 5`), []byte(`"version": 4`), 1))
	f.Add(bytes.Replace(written, []byte(`"nshards": 3`), []byte(`"nshards": 1e999`), 1))
	f.Add(bytes.Replace(written, []byte(`"config_fingerprint": "`), []byte(`"config_fingerprint": 7, "x": "`), 1))
	f.Add([]byte(`{"version": 2, "stream": true, "rmax": 40}`))
	f.Add([]byte(`[3]`))
	f.Add([]byte(nil))
	f.Add([]byte(fmt.Sprintf(`{"version": 4, "nshards": 3, "ngalaxies": 700, "box_l": 160, "sum_weight": 700, "config_fingerprint": %q}`, m.ConfigFingerprint)))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseManifest(data)
		if err != nil {
			return
		}
		if m.Version != manifestVersion {
			t.Fatalf("accepted a version-%d manifest: %s", m.Version, data)
		}
		again, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("accepted manifest does not re-encode: %v", err)
		}
		if back, err := parseManifest(again); err != nil || back != m {
			t.Fatalf("accepted manifest does not survive a rewrite: %+v -> %+v (%v)", m, back, err)
		}
	})
}
