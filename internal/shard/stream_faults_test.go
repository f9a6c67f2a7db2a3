package shard

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"galactos/internal/catalog"
	"galactos/internal/core"
	"galactos/internal/faultpoint"
)

// streamFaultSetup runs a clean checkpointed streaming run and returns the
// catalog, config, checkpoint dir, and clean result.
func streamFaultSetup(t *testing.T, seed int64) (*catalog.Catalog, core.Config, string, *core.Result) {
	t.Helper()
	cat := catalog.Clustered(700, 160, catalog.DefaultClusterParams(), seed)
	cfg := streamConfig()
	dir := t.TempDir()
	first, _, err := compute(cat, cfg,
		Options{NShards: 3, CheckpointDir: dir, Keep: true})
	if err != nil {
		t.Fatal(err)
	}
	return cat, cfg, dir, first
}

// TestStreamCorruptPartCheckpointRecomputed: a part checkpoint with a flipped
// payload byte is detected, recomputed, and the merged result is bitwise
// identical — recompute-and-continue, never a hard failure.
func TestStreamCorruptPartCheckpointRecomputed(t *testing.T) {
	cat, cfg, dir, first := streamFaultSetup(t, 37)
	victim := checkpointPath(dir, 1, 3)
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	res, stats, err := compute(cat, cfg,
		Options{NShards: 3, CheckpointDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats[1].Resumed {
		t.Error("corrupt part checkpoint was trusted instead of recomputed")
	}
	if d := res.MaxAbsDiff(first); d != 0 {
		t.Errorf("result after recomputing corrupt part differs by %v", d)
	}
}

// TestStreamTruncatedPartCheckpointRecomputed: a checkpoint cut short (a
// kill mid-write on a filesystem without atomic rename) degrades the same
// way.
func TestStreamTruncatedPartCheckpointRecomputed(t *testing.T) {
	cat, cfg, dir, first := streamFaultSetup(t, 41)
	victim := checkpointPath(dir, 0, 3)
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victim, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	res, stats, err := compute(cat, cfg,
		Options{NShards: 3, CheckpointDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].Resumed {
		t.Error("truncated part checkpoint was trusted instead of recomputed")
	}
	if d := res.MaxAbsDiff(first); d != 0 {
		t.Errorf("result after recomputing truncated part differs by %v", d)
	}
}

// TestStreamMismatchedCheckpointForeign: a checkpoint that loads cleanly
// and matches the run config but carries the wrong primary count passes the
// resume pre-scan — so the scatter pass skips its records — and fails the
// reload against its part's owned count. The manifest pins the exact
// catalog and the plan is deterministic, so only another build can have
// written it: the run is refused with ErrForeignRun, as for a foreign
// manifest, and a run without Resume over the same directory recomputes it.
func TestStreamMismatchedCheckpointForeign(t *testing.T) {
	cat, cfg, dir, first := streamFaultSetup(t, 43)
	// A valid same-config partial with a primary count no part owns.
	decoy := catalog.Clustered(50, 160, catalog.DefaultClusterParams(), 99)
	res, err := core.Compute(decoy, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.SaveResult(checkpointPath(dir, 1, 3), res); err != nil {
		t.Fatal(err)
	}

	_, _, err = compute(cat, cfg, Options{NShards: 3, CheckpointDir: dir, Resume: true})
	if !errors.Is(err, ErrForeignRun) || !strings.Contains(err.Error(), "shard 1/3") {
		t.Fatalf("resume over a checkpoint with another primary count: got %v, want ErrForeignRun naming shard 1/3", err)
	}
	got, _, err := compute(cat, cfg, Options{NShards: 3, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if d := got.MaxAbsDiff(first); d != 0 {
		t.Errorf("rerun without Resume differs by %v", d)
	}
}

// TestStreamAbsorbsTransientFaults injects one transient fault at every IO
// faultpoint of the streaming pipeline — source open/read, spill write/read,
// checkpoint save/load — and requires the run to succeed with a bitwise
// identical result: the retry layer absorbs each of them.
func TestStreamAbsorbsTransientFaults(t *testing.T) {
	cat := catalog.Clustered(600, 160, catalog.DefaultClusterParams(), 47)
	cfg := streamConfig()
	path := filepath.Join(t.TempDir(), "cat.glxc")
	if err := catalog.SaveBinary(path, cat); err != nil {
		t.Fatal(err)
	}
	src := catalog.NewFileSource(path)

	clean, _, err := Compute(context.Background(), src, cfg,
		Options{NShards: 3, CheckpointDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}

	faultpoint.Enable(faultpoint.NewPlan(1,
		faultpoint.Point{Name: "catalog.source.open", Kind: faultpoint.KindError, Count: 1},
		faultpoint.Point{Name: "catalog.source.read", Kind: faultpoint.KindError, After: 1, Count: 1},
		faultpoint.Point{Name: "shard.spill.write", Kind: faultpoint.KindError, After: 100, Count: 1},
		faultpoint.Point{Name: "shard.spill.read", Kind: faultpoint.KindError, Count: 1},
		faultpoint.Point{Name: "shard.checkpoint.save", Kind: faultpoint.KindError, Count: 1},
	))
	defer faultpoint.Disable()

	res, _, err := Compute(context.Background(), src, cfg,
		Options{NShards: 3, CheckpointDir: t.TempDir()})
	if err != nil {
		t.Fatalf("streaming run did not absorb transient faults: %v", err)
	}
	if d := res.MaxAbsDiff(clean); d != 0 {
		t.Errorf("faulted run differs from clean run by %v", d)
	}
	var fired uint64
	for _, st := range faultpoint.Stats() {
		fired += st.Fired
	}
	if fired < 5 {
		t.Errorf("only %d faults fired; the test should exercise every point", fired)
	}
}
