package shard

import (
	"context"
	"runtime"
	"testing"

	"galactos/internal/catalog"
	"galactos/internal/partition"
)

// histBuckets is the plan's level histogram, which the memory bound allows
// for.
const histBuckets = partition.HistBuckets

// passesAlloc returns the bytes a fresh stream and its three passes (scan,
// plan, spill) allocate over cat at nshards.
func passesAlloc(t *testing.T, cat *catalog.Catalog, nshards int, rmax float64) uint64 {
	t.Helper()
	ctx, dir := context.Background(), t.TempDir()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := newStream(catalog.NewMemorySource(cat), nshards)
	sc, err := catalog.Scan(ctx, s.src, s.block, false)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.plan(ctx, sc, nshards)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.spillParts(ctx, p, rmax, dir, nshards); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSpillMemoryBound: the streaming passes' working memory is fixed.
// Going from 8 to 64 shards grows it by less than the spill budget (the
// buffers are one budget, not one per file). At 8 shards the passes
// allocate their fixed buffers — the spill budget, the decode block and the
// spill-read block — plus an allowance for the rest: the plan's histogram
// (which the compiler may keep on the stack), each spill file's handle and
// path, and slack for the scan, the plan and the counts. A pass with a
// decode buffer of its own overruns the allowance.
func TestSpillMemoryBound(t *testing.T) {
	cat := catalog.Clustered(24000, 340, catalog.DefaultClusterParams(), 3)
	const rmax = 5
	at8, at64 := passesAlloc(t, cat, 8, rmax), passesAlloc(t, cat, 64, rmax)
	if at64 >= at8+spillBudget {
		t.Errorf("passes allocate %d bytes at 64 shards, %d at 8: the gap reaches the %d-byte spill budget", at64, at8, spillBudget)
	}
	const (
		block     = decodeBlock * catalog.RecordSize // the decode block; the read block is as long
		fixed     = spillBudget + 2*block
		perFile   = 1 << 10
		slack     = 16 << 10
		allowance = histBuckets*8 + 2*8*perFile + slack
	)
	if at8 >= fixed+allowance {
		t.Errorf("passes allocate %d bytes at 8 shards: %d beyond their %d bytes of fixed buffers, allowance %d", at8, int64(at8)-fixed, fixed, allowance)
	}
	t.Logf("passes allocate %d bytes at 8 shards (%d beyond the fixed buffers), %d at 64", at8, int64(at8)-fixed, at64)
}
