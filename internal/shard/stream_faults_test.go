package shard

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
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
		Options{NShards: 3, CheckpointDir: dir})
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
		Options{NShards: 3, CheckpointDir: dir})
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
// and matches the run's manifest and multipole shape but counts another
// part's primaries — only another build or an operator can have put it
// there, since the plan is a function of the catalog and config the
// manifest pins — is discarded against the spill pass's counts with a line
// naming its part, and that part is recomputed from its spill: the rerun
// resumes the others and reproduces the clean run's bits.
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

	var mu sync.Mutex
	var discarded []string
	got, stats, err := compute(cat, cfg, Options{NShards: 3, CheckpointDir: dir, Log: func(format string, args ...any) {
		if line := fmt.Sprintf(format, args...); strings.Contains(line, "discarding checkpoint") {
			mu.Lock()
			discarded = append(discarded, line)
			mu.Unlock()
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(discarded) != 1 || !strings.Contains(discarded[0], "shard 1/3") || !strings.Contains(discarded[0], "50 primaries") {
		t.Errorf("discard lines %q, want one naming shard 1/3 and its 50 primaries", discarded)
	}
	if !stats[0].Resumed || stats[1].Resumed || !stats[2].Resumed {
		t.Errorf("resumed parts %v, %v, %v; want all but part 1", stats[0].Resumed, stats[1].Resumed, stats[2].Resumed)
	}
	if d := got.MaxAbsDiff(first); d != 0 || got.Pairs != first.Pairs {
		t.Errorf("rerun differs from the clean run: pairs %d vs %d, max |diff| %v", got.Pairs, first.Pairs, d)
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
