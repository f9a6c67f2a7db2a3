package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"galactos/internal/catalog"
	"galactos/internal/faultpoint"
	"galactos/internal/geom"
	"galactos/internal/hist"
)

// sameBits reports the first difference between two results' Pairs,
// NPrimaries, SumWeight and Aniso bits, or nil when there is none.
func sameBits(got, want *Result) error {
	if got.Pairs != want.Pairs || got.NPrimaries != want.NPrimaries {
		return fmt.Errorf("pair/primary counts differ: %d/%d vs %d/%d",
			got.Pairs, got.NPrimaries, want.Pairs, want.NPrimaries)
	}
	if math.Float64bits(got.SumWeight) != math.Float64bits(want.SumWeight) {
		return fmt.Errorf("SumWeight not bitwise identical: %v vs %v", got.SumWeight, want.SumWeight)
	}
	for i := range got.Aniso {
		a, b := got.Aniso[i], want.Aniso[i]
		if math.Float64bits(real(a)) != math.Float64bits(real(b)) ||
			math.Float64bits(imag(a)) != math.Float64bits(imag(b)) {
			return fmt.Errorf("Aniso[%d] not bitwise identical: %v vs %v", i, a, b)
		}
	}
	return nil
}

// TestResultIndependentOfWorkers pins the one-answer contract: every commit
// unit adds into the run's single result in ascending unit order, so one
// configuration has one Aniso/SumWeight/Pairs bit pattern at Workers 1, 2, 3
// and 8 under GOMAXPROCS 1, 2 and 8 — for every LOS mode × IsotropicOnly ×
// SelfCount on a periodic and an open catalog, and with injected worker
// delays reshuffling which worker commits which unit.
func TestResultIndependentOfWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	periodic := catalog.Clustered(300, 180, catalog.DefaultClusterParams(), 81)
	open := &catalog.Catalog{Galaxies: periodic.Galaxies}
	base := propConfig()
	base.Observer = geom.Vec3{X: -200, Y: -100, Z: -350}
	type row struct {
		name   string
		cat    *catalog.Catalog
		cfg    Config
		delays bool
	}
	var rows []row
	for _, c := range []struct {
		name string
		cat  *catalog.Catalog
	}{{"periodic", periodic}, {"open", open}} {
		for _, los := range []LOSMode{LOSPlaneParallel, LOSRadial, LOSMidpoint} {
			for _, iso := range []bool{false, true} {
				for _, self := range []bool{false, true} {
					cfg := base
					cfg.LOS, cfg.IsotropicOnly, cfg.SelfCount = los, iso, self
					name := fmt.Sprintf("%s-%v-iso=%v-self=%v", c.name, los, iso, self)
					rows = append(rows, row{name, c.cat, cfg, false})
				}
			}
		}
	}
	rows = append(rows, row{"periodic-worker-delays", periodic, base, true})
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			if r.delays {
				faultpoint.Enable(faultpoint.NewPlan(7,
					faultpoint.Point{Name: "core.worker.block", Kind: faultpoint.KindDelay, P: 0.3}))
				defer faultpoint.Disable()
			}
			var ref *Result
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				for _, workers := range []int{1, 2, 3, 8} {
					cfg := r.cfg
					cfg.Workers = workers
					// dozens of units, so workers interleave
					got, err := computeEngine(context.Background(), r.cat, cfg, smallUnits(8, 0))
					if err != nil {
						t.Fatal(err)
					}
					if ref == nil {
						ref = got
						continue
					}
					if err := sameBits(got, ref); err != nil {
						t.Fatalf("GOMAXPROCS=%d Workers=%d vs GOMAXPROCS=1 Workers=1: %v", procs, workers, err)
					}
				}
			}
		})
	}
}

// TestBlockCancellationPromptNoLeaks cancels a running computation and
// checks that it returns promptly with ctx.Err() (the context is checked
// once per cell block) and that no worker goroutines outlive the call —
// including the commit-clock waiters, which must drain even when blocks are
// abandoned mid-run.
func TestBlockCancellationPromptNoLeaks(t *testing.T) {
	cat := catalog.Clustered(4000, 220, catalog.DefaultClusterParams(), 83)
	cfg := propConfig()
	cfg.RMax = 80
	cfg.Workers = 4

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := computeEngine(ctx, cat, cfg, smallUnits(4, 0)) // many small blocks: cancellation lands mid-run
	elapsed := time.Since(start)
	if err == nil {
		// The run may legitimately finish before the cancel fires on a
		// fast machine; only a late cancel with a hung return is a bug.
		if res == nil {
			t.Fatal("nil result without error")
		}
		return
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation not prompt: took %v", elapsed)
	}
	// Workers must be gone; allow the runtime a moment to reap them.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutine leak: %d before, %d after", before, g)
	}
}

// TestProcessBlockAllocFree pins the satellite requirement that the
// steady-state block loop performs no allocations: after one warm-up sweep
// (buffer growth is amortized), processing blocks allocates nothing — no
// neighbor-buffer regrowth, no touched-list churn, no per-primary scratch.
func TestProcessBlockAllocFree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RMax = 50
	cfg.NBins = 8
	cfg.LMax = 6
	cfg.Workers = 1
	testProcessBlockAllocFree(t, cfg)
}

// TestProcessBlockAllocFreeIsoMidpoint is the same steady-state zero-alloc
// pin for the IsotropicOnly fast ladder under the midpoint LOS: the compact
// real slab fill, ZetaBatchIso calls, and per-pair midpoint rotations must
// all run out of the worker arenas with no per-block garbage.
func TestProcessBlockAllocFreeIsoMidpoint(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RMax = 50
	cfg.NBins = 8
	cfg.LMax = 6
	cfg.Workers = 1
	cfg.IsotropicOnly = true
	cfg.LOS = LOSMidpoint
	cfg.Observer = geom.Vec3{X: -250, Y: -150, Z: -400}
	testProcessBlockAllocFree(t, cfg)
}

func testProcessBlockAllocFree(t *testing.T, cfg Config) {
	t.Helper()
	cat := catalog.Clustered(2000, 200, catalog.DefaultClusterParams(), 85)
	cfg, err := cfg.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	bins, err := hist.NewBinning(cfg.RMin, cfg.RMax, cfg.NBins)
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(context.Background(), cat, nil, cfg, bins)
	if err := e.buildFinder(); err != nil {
		t.Fatal(err)
	}
	e.buildBlocks()
	if len(e.blocks) < 2 {
		t.Fatalf("expected multiple blocks, got %d", len(e.blocks))
	}
	s := e.newWorkerState()
	for b := range e.blocks { // warm-up: grow all amortized buffers
		e.processBlock(s, b)
	}
	b := 0
	allocs := testing.AllocsPerRun(20, func() {
		e.processBlock(s, b)
		b = (b + 1) % len(e.blocks)
	})
	if allocs != 0 {
		t.Fatalf("steady-state processBlock allocates %.1f objects/run, want 0", allocs)
	}
}

// TestUnitsPartitionCells pins the unit cuts buildBlocks hands the
// scheduler. Units are contiguous, non-empty runs of the Morton-sorted
// primaries that cover every primary once, and they close only on cell
// edges — where the Morton key changes, or where one key's run is cut at a
// multiple of unitCap — so a cell is never split. A unit of several cells
// stays within unitCap/2 primaries, and units are maximal: a unit closes
// only because its successor's first cell would have pushed it past that
// bound (so a cell at or above the bound stands alone). The cuts are also
// pinned outright (unit count and a hash of the boundaries and the primary
// order, recorded when units were still built from an explicit cell list):
// the commit order, and with it every result bit, follows them. The first
// row is the engine's own shape; the others shrink it as in-package tests
// do. The cuts depend on the catalog and the shape only — Workers, which
// decides who processes a unit, must not move a boundary.
func TestUnitsPartitionCells(t *testing.T) {
	cat := catalog.Clustered(3000, 200, catalog.DefaultClusterParams(), 87)
	for _, shape := range []struct {
		unitCap int32
		cell    float64
		units   int
		hash    uint64
	}{
		{0, 0, 103, 0xeed8fbde794016d},
		{16, 12, 405, 0xca92fe8f2b2d7d4a},
		{4, 0, 1007, 0x4ea778aa688d21ae},
		{3, 9, 2368, 0x8f2401fd3c46c788},
		{1, 0, 3000, 0x4177311503e43fe8},
	} {
		var ref []blockRange
		for _, workers := range []int{1, 2, 8} {
			cfg := propConfig()
			cfg.Workers = workers
			cfg, err := cfg.Normalize()
			if err != nil {
				t.Fatal(err)
			}
			bins, err := hist.NewBinning(cfg.RMin, cfg.RMax, cfg.NBins)
			if err != nil {
				t.Fatal(err)
			}
			e := newEngine(context.Background(), cat, nil, cfg, bins)
			if shape.unitCap > 0 {
				smallUnits(shape.unitCap, shape.cell)(e)
			}
			e.buildBlocks()
			if ref == nil {
				ref = e.blocks
				checkPartition(t, e)
				h := fnv.New64a()
				for _, u := range e.blocks {
					fmt.Fprintf(h, "%d,", u.hi)
				}
				for _, pi := range e.primaryIdx {
					fmt.Fprintf(h, "%d,", pi)
				}
				if len(e.blocks) != shape.units || h.Sum64() != shape.hash {
					t.Fatalf("unitCap %d: unit cuts moved: %d units, hash %#x; pinned %d, %#x",
						e.unitCap, len(e.blocks), h.Sum64(), shape.units, shape.hash)
				}
				continue
			}
			if !slices.Equal(e.blocks, ref) {
				t.Fatalf("unitCap %d: partition moved with workers=%d", e.unitCap, workers)
			}
		}
	}
}

// TestRadixOrderMatchesComparisonSort checks buildBlocks' radix order
// against the comparison sort on (key, index) it replaced, kept here as the
// oracle, on three shapes: keys that differ in at least three bytes (a large
// box cut into small cells), many primaries per key (cells far wider than the
// clusters), and a sparse primary mask on an open catalog (keys anchored at
// the primaries' minimum, index gaps between the primaries).
func TestRadixOrderMatchesComparisonSort(t *testing.T) {
	clustered := catalog.Clustered(4000, 200, catalog.DefaultClusterParams(), 92)
	open := *clustered
	open.Box.L = 0
	sparse := make([]bool, open.Len())
	for i := range sparse {
		sparse[i] = i%7 == 3
	}
	for _, tc := range []struct {
		name string
		cat  *catalog.Catalog
		mask []bool
		cell float64
	}{
		{"wide-keys", catalog.Uniform(5000, 1000, 91), nil, 0.5},
		{"equal-keys", clustered, nil, 150},
		{"sparse-mask", &open, sparse, 3},
	} {
		cfg, err := propConfig().Normalize()
		if err != nil {
			t.Fatal(err)
		}
		bins, err := hist.NewBinning(cfg.RMin, cfg.RMax, cfg.NBins)
		if err != nil {
			t.Fatal(err)
		}
		e := newEngine(context.Background(), tc.cat, tc.mask, cfg, bins)
		e.cell = tc.cell
		want := e.cellKeys()
		slices.SortFunc(want, func(a, b keyed) int {
			return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.pi, b.pi))
		})
		var diff uint64
		distinct := 1
		for i, k := range want {
			diff |= k.key ^ want[0].key
			if i > 0 && k.key != want[i-1].key {
				distinct++
			}
		}
		varying := 0
		for sh := 0; sh < 64; sh += 8 {
			if byte(diff>>sh) != 0 {
				varying++
			}
		}
		n := len(want)
		switch {
		case tc.name == "wide-keys" && varying < 3,
			tc.name == "equal-keys" && distinct > n/100,
			tc.name == "sparse-mask" && n > tc.cat.Len()/5:
			t.Fatalf("%s lost its shape: %d primaries, %d distinct keys varying in %d bytes", tc.name, n, distinct, varying)
		}
		e.buildBlocks()
		for i, k := range want {
			if e.primaryIdx[i] != k.pi {
				t.Fatalf("%s: sorted primary %d is %d, the comparison sort puts %d there", tc.name, i, e.primaryIdx[i], k.pi)
			}
		}
	}
}

func checkPartition(t *testing.T, e *Engine) {
	t.Helper()
	unitCap := e.unitCap
	// Periodic box: cells anchor at the corner. cellEnd[i] reports whether a
	// cell ends after sorted primary i-1: the key changes there, or the key's
	// run has reached a multiple of unitCap.
	n := int32(len(e.primaryIdx))
	key := func(i int32) uint64 {
		p := e.pts[e.primaryIdx[i]].Scale(1 / e.cell)
		return morton3(cellCoord(p.X), cellCoord(p.Y), cellCoord(p.Z))
	}
	cellEnd := make([]bool, n+1)
	run := int32(0)
	for i := int32(1); i <= n; i++ {
		run++
		if i == n || key(i) != key(i-1) {
			cellEnd[i], run = true, 0
		} else if run%unitCap == 0 {
			cellEnd[i] = true
		}
	}
	nextCell := func(i int32) int32 { // end of the cell that starts at i
		for i++; !cellEnd[i]; i++ {
		}
		return i
	}
	next := int32(0)
	multi := 0
	for i, u := range e.blocks {
		if u.lo != next || u.hi <= u.lo {
			t.Fatalf("unitCap %d: unit %d = %v after primary %d", unitCap, i, u, next)
		}
		next = u.hi
		if !cellEnd[u.hi] {
			t.Fatalf("unitCap %d: unit %d = %v closes inside a cell", unitCap, i, u)
		}
		if k := u.hi - u.lo; nextCell(u.lo) < u.hi {
			multi++
			if k > unitCap/2 {
				t.Fatalf("unitCap %d: unit %d spans several cells with %d primaries, bound %d", unitCap, i, k, unitCap/2)
			}
		} else if k > unitCap {
			t.Fatalf("unitCap %d: single-cell unit %d holds %d primaries", unitCap, i, k)
		}
		if u.hi < n {
			if succ := nextCell(u.hi) - u.hi; u.hi-u.lo+succ <= unitCap/2 {
				t.Fatalf("unitCap %d: unit %d closed early: %d primaries + next cell's %d fit the bound %d",
					unitCap, i, u.hi-u.lo, succ, unitCap/2)
			}
		}
	}
	if next != n {
		t.Fatalf("unitCap %d: units cover %d of %d primaries", unitCap, next, n)
	}
	if unitCap >= 16 && multi == 0 {
		t.Fatalf("unitCap %d: no unit spans more than one cell; the test lost its shape", unitCap)
	}
}
