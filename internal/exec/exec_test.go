package exec

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"galactos/internal/catalog"
	"galactos/internal/core"
	"galactos/internal/geom"
)

// testConfig is the backends' shared small job. Workers stays at its
// default: every engine run accumulates its units in one fixed order at any
// worker count.
func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.RMax = 45
	cfg.NBins = 5
	cfg.LMax = 4
	return cfg
}

// openCatalog is a fixed seeded open-boundary (survey-like) catalog.
func openCatalog(t *testing.T, n int) *catalog.Catalog {
	t.Helper()
	cat := catalog.Clustered(n, 220, catalog.DefaultClusterParams(), 137)
	cat.Box = geom.Periodic{} // open boundaries
	return cat
}

// local and sharded are the two backends' specs.
func local() Spec        { return Spec{Name: "local"} }
func sharded(k int) Spec { return Spec{Name: "sharded", Shards: k} }

func runBackend(t *testing.T, spec Spec, cat *catalog.Catalog, cfg core.Config) *core.Result {
	t.Helper()
	run, err := Run(context.Background(), Request{Catalog: cat, Config: cfg, Backend: spec})
	if err != nil {
		t.Fatalf("%+v: %v", spec, err)
	}
	if len(run.Units) == 0 {
		t.Fatalf("%+v: no unit stats", spec)
	}
	return run.Result
}

func assertBitwise(t *testing.T, name string, a, b *core.Result) {
	t.Helper()
	if a.NPrimaries != b.NPrimaries || a.NGalaxies != b.NGalaxies ||
		a.Pairs != b.Pairs || a.SumWeight != b.SumWeight {
		t.Fatalf("%s: scalar fields differ: primaries %d/%d galaxies %d/%d pairs %d/%d sumw %v/%v",
			name, a.NPrimaries, b.NPrimaries, a.NGalaxies, b.NGalaxies,
			a.Pairs, b.Pairs, a.SumWeight, b.SumWeight)
	}
	for i := range a.Aniso {
		x, y := a.Aniso[i], b.Aniso[i]
		if math.Float64bits(real(x)) != math.Float64bits(real(y)) ||
			math.Float64bits(imag(x)) != math.Float64bits(imag(y)) {
			t.Fatalf("%s: Aniso[%d] not bitwise identical: %v vs %v", name, i, x, y)
		}
	}
}

// TestBackendEquivalenceGolden is the backend-equivalence golden test: on a
// fixed seeded catalog, the local and sharded backends produce the same
// Result. Two layers:
//
//  1. The degenerate decomposition (1 shard) must match Local bitwise — both
//     paths reduce to the same primary loop in the same order.
//  2. Multi-shard decompositions (incl. the non-power-of-two k = 3) differ
//     from Local only by floating-point summation order; that distance is
//     asserted tiny relative to the signal.
//
// The periodic rows are the ones a decomposition can get wrong: a halo copy
// moved to its periodic image keeps every separation but not the lines of
// sight built from absolute positions (midpoint: 1.7 % off when halo copies
// were image-shifted). Slabs keep the source's box and coordinates.
func TestBackendEquivalenceGolden(t *testing.T) {
	offBox := geom.Vec3{X: -250, Y: -300, Z: -350}
	cases := []struct {
		name     string
		periodic bool
		mutate   func(*core.Config)
	}{
		{"default", false, func(*core.Config) {}},
		{"isotropic-only", false, func(c *core.Config) { c.IsotropicOnly = true }},
		{"los-radial", false, func(c *core.Config) { c.LOS, c.Observer = core.LOSRadial, offBox }},
		{"periodic-los-midpoint", true, func(c *core.Config) { c.LOS, c.Observer = core.LOSMidpoint, offBox }},
		{"periodic-los-radial", true, func(c *core.Config) { c.LOS, c.Observer = core.LOSRadial, offBox }},
	}
	open := openCatalog(t, 600)
	periodic := catalog.Clustered(800, 240, catalog.DefaultClusterParams(), 137)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			tc.mutate(&cfg)
			cat := open
			if tc.periodic {
				cat = periodic
			}

			loc := runBackend(t, local(), cat, cfg)
			sharded1 := runBackend(t, sharded(1), cat, cfg)
			assertBitwise(t, "local vs sharded(1)", loc, sharded1)

			for _, k := range []int{2, 3} {
				sh := runBackend(t, sharded(k), cat, cfg)
				if d, m := loc.MaxAbsDiff(sh), loc.MaxAbs(); d > 1e-9*m {
					t.Fatalf("local vs sharded(%d): max |diff| %.3e vs scale %.3e", k, d, m)
				}
			}
		})
	}
}

// TestStreamingShardedMatchesLocal pins the streaming-ingestion path: a
// catalog consumed shard-by-shard from disk must reproduce the in-memory
// result (identical pair sets; multipoles to rounding).
func TestStreamingShardedMatchesLocal(t *testing.T) {
	cat := catalog.Clustered(800, 200, catalog.DefaultClusterParams(), 53)
	cfg := testConfig()

	path := filepath.Join(t.TempDir(), "cat.glxc")
	if err := catalog.SaveBinary(path, cat); err != nil {
		t.Fatal(err)
	}
	want := runBackend(t, local(), cat, cfg)
	run, err := Run(context.Background(), Request{Path: path, Config: cfg, Backend: sharded(3)})
	if err != nil {
		t.Fatal(err)
	}
	res := run.Result
	if res.Pairs != want.Pairs || res.NPrimaries != want.NPrimaries || res.NGalaxies != want.NGalaxies {
		t.Fatalf("streaming counters diverge: pairs %d/%d primaries %d/%d galaxies %d/%d",
			res.Pairs, want.Pairs, res.NPrimaries, want.NPrimaries, res.NGalaxies, want.NGalaxies)
	}
	if d, m := res.MaxAbsDiff(want), want.MaxAbs(); d > 1e-9*m {
		t.Fatalf("streaming multipoles diverge: max |diff| %.3e vs scale %.3e", d, m)
	}
	var owned int
	for _, u := range run.Units {
		owned += u.NOwned
	}
	if owned != cat.Len() {
		t.Fatalf("slab owned counts sum to %d, want %d", owned, cat.Len())
	}
}

// settleGoroutines polls until the goroutine count returns to the baseline
// (or the deadline passes): cancelled workers need a moment to unwind.
func settleGoroutines(baseline int) int {
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// cancelConfig makes the compute long enough to cancel mid-run.
func cancelConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.RMax = 90
	cfg.NBins = 10
	cfg.LMax = 8
	return cfg
}

// TestCancellationPromptAndLeakFree: cancelling mid-run returns
// context.Canceled promptly and leaks no goroutines, on every backend.
func TestCancellationPromptAndLeakFree(t *testing.T) {
	cat := catalog.Clustered(6000, 250, catalog.DefaultClusterParams(), 71)
	for _, spec := range []Spec{local(), sharded(4)} {
		t.Run(spec.Name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(50 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			_, err := Run(ctx, Request{Catalog: cat, Config: cancelConfig(), Backend: spec})
			elapsed := time.Since(start)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			if elapsed > 5*time.Second {
				t.Fatalf("cancellation not prompt: took %v", elapsed)
			}
			if n := settleGoroutines(baseline); n > baseline {
				t.Fatalf("goroutine leak: %d before, %d after", baseline, n)
			}
		})
	}
}

// TestCancellationLeavesResumableCheckpoints: a cancelled checkpointed
// sharded run keeps its manifest and completed shard checkpoints, and a
// resume completes the run with the same result as an uninterrupted one.
func TestCancellationLeavesResumableCheckpoints(t *testing.T) {
	cat := catalog.Clustered(2000, 250, catalog.DefaultClusterParams(), 97)
	cfg := cancelConfig()
	cfg.LMax = 6
	cfg.Workers = 1
	dir := t.TempDir()

	// Cancel as soon as the first shard reports completion.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done atomic.Int32
	_, err := Run(ctx, Request{
		Catalog: cat,
		Config:  cfg,
		Backend: Spec{Name: "sharded", Shards: 6, CheckpointDir: dir},
		Log: func(format string, args ...any) {
			if done.Add(1) == 1 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err != nil {
		t.Fatalf("manifest missing after cancellation: %v", err)
	}
	ckpts, _ := filepath.Glob(filepath.Join(dir, "shard-*.gres"))
	if len(ckpts) == 0 {
		t.Fatal("no shard checkpoints survived the cancellation")
	}

	resumed := 0
	run, err := Run(context.Background(), Request{
		Catalog: cat,
		Config:  cfg,
		Backend: Spec{Name: "sharded", Shards: 6, CheckpointDir: dir, Resume: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range run.Units {
		if u.Resumed {
			resumed++
		}
	}
	if resumed == 0 {
		t.Fatal("resume recomputed every shard; expected at least one checkpoint reuse")
	}
	clean := runBackend(t, sharded(6), cat, cfg)
	assertBitwise(t, "resumed vs uninterrupted", run.Result, clean)
}

// TestSpecBackendSelection pins the -backend flag surface: the spec names
// the backend that runs (empty means local), and Resolve refuses what it
// cannot run.
func TestSpecBackendSelection(t *testing.T) {
	cat, cfg := openCatalog(t, 300), testConfig()
	run := func(spec Spec, logf func(string, ...any)) *RunResult {
		t.Helper()
		r, err := Run(context.Background(), Request{Catalog: cat, Config: cfg, Backend: spec, Log: logf})
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		return r
	}
	for _, tc := range []struct {
		spec Spec
		want string
	}{
		{Spec{Name: "local"}, "local"},
		{Spec{Name: ""}, "local"},
		{Spec{Name: "sharded", Shards: 4}, "sharded"},
	} {
		if r := run(tc.spec, nil); r.Backend != tc.want {
			t.Fatalf("%+v: ran backend %q, want %q", tc.spec, r.Backend, tc.want)
		}
	}
	resolve := func(spec Spec) error {
		_, err := Request{Catalog: cat, Backend: spec}.Resolve()
		return err
	}
	if resolve(Spec{Name: "mpi"}) == nil {
		t.Fatal("unknown backend name accepted")
	}
	// The retired goroutine-rank backend is an explicit error that names
	// what remains, never a panic or a silent local run.
	err := resolve(Spec{Name: "dist"})
	if err == nil || !strings.Contains(err.Error(), "local") || !strings.Contains(err.Error(), "sharded") {
		t.Fatalf("removed backend: want an error naming local and sharded, got %v", err)
	}
	// The deprecated Stream / ShardConcurrency fields still decode, select
	// nothing — the spec runs to the bits of the spec without them — and
	// are reported once on the run's log.
	var old, plain Spec
	for text, spec := range map[string]*Spec{
		`{"Name":"sharded","Shards":2,"ShardConcurrency":2,"Stream":true}`: &old,
		`{"Name":"sharded","Shards":2}`:                                    &plain,
	} {
		if err := json.Unmarshal([]byte(text), spec); err != nil {
			t.Fatalf("%s: %v", text, err)
		}
	}
	notes := 0
	logged := func(format string, args ...any) {
		if fmt.Sprintf(format, args...) == old.DeprecationNote() {
			notes++
		}
	}
	assertBitwise(t, "spec with vs without deprecated fields", run(old, logged).Result, run(plain, logged).Result)
	if notes != 1 {
		t.Fatalf("deprecation note logged %d times over a deprecated and a plain run, want once", notes)
	}
	if old.DeprecationNote() == "" || plain.DeprecationNote() != "" || (Spec{Name: "sharded", ShardConcurrency: 1}).DeprecationNote() != "" {
		t.Fatal("DeprecationNote must fire for Stream or ShardConcurrency > 1, and only then")
	}
	// Contradictions are errors, never silent drops.
	for _, spec := range []Spec{
		{Name: "local", Shards: 16},
		{Name: "local", CheckpointDir: "ckpt"},
		{Name: "local", Stream: true},
		{Name: "local", Resume: true},
	} {
		if resolve(spec) == nil {
			t.Fatalf("contradictory spec silently accepted: %+v", spec)
		}
	}
}

// TestRunCollectsUniformPerf: Run returns the same record from every
// backend, naming the backend that ran, with the phase timings populated.
func TestRunCollectsUniformPerf(t *testing.T) {
	cat := openCatalog(t, 400)
	cfg := testConfig()
	for _, spec := range []Spec{local(), sharded(2)} {
		run, err := Run(context.Background(), Request{Catalog: cat, Config: cfg, Backend: spec})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if run.Backend != spec.Name {
			t.Fatalf("%s: run record names backend %q", spec.Name, run.Backend)
		}
		if run.Result.Timings.Consume <= 0 || run.Elapsed <= 0 {
			t.Fatalf("%s: phase timings not populated: %+v over %v", spec.Name, run.Result.Timings, run.Elapsed)
		}
	}
}
