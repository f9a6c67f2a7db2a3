package shard

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"galactos/internal/catalog"
	"galactos/internal/core"
	"galactos/internal/faultpoint"
)

// TestPipelineInterleavingKeepsGoldenBits runs the pinned sharded run with
// its stages slowed three ways, so that part i+1's preparation finishes
// early in part i's run, around its end, or well after it (the compute loop
// then waits), and checkpoint writes overlap one to three later parts. The
// merge runs in part order whatever the interleaving: every plan must give
// the committed golden hash bit for bit.
func TestPipelineInterleavingKeepsGoldenBits(t *testing.T) {
	path, cfg := goldenFixture(t)
	want := readGolden(t)[goldenRun]
	if want == "" {
		t.Fatalf("%s: no golden hash — run `make golden`", goldenRun)
	}
	delay := func(name string, every uint64, d time.Duration) faultpoint.Point {
		return faultpoint.Point{Name: name, Kind: faultpoint.KindDelay, Every: every, Delay: d}
	}
	defer faultpoint.Disable()
	for _, tc := range []struct {
		name   string
		points []faultpoint.Point
	}{
		// Every commit unit sleeps: the engine is the slow stage.
		{"engine-bound", []faultpoint.Point{delay("core.worker.block", 1, time.Millisecond)}},
		// Spill reads and checkpoint writes sleep: the engine waits.
		{"io-bound", []faultpoint.Point{
			delay("shard.spill.read", 1, 15*time.Millisecond),
			delay("shard.checkpoint.save", 1, 40*time.Millisecond),
		}},
		{"mixed", []faultpoint.Point{
			delay("core.worker.block", 7, time.Millisecond),
			delay("shard.spill.read", 3, 5*time.Millisecond),
			delay("shard.checkpoint.save", 2, 10*time.Millisecond),
		}},
	} {
		faultpoint.Enable(faultpoint.NewPlan(1, tc.points...))
		res, _, err := Compute(context.Background(), catalog.NewFileSource(path), cfg,
			Options{NShards: 8, CheckpointDir: t.TempDir()})
		stats := faultpoint.Stats()
		faultpoint.Disable()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, st := range stats {
			if st.Fired == 0 {
				t.Errorf("%s: %s never fired", tc.name, st.Name)
			}
		}
		if got := resultHash(res); got != want {
			t.Errorf("%s: hash %s, golden %s", tc.name, got, want)
		}
	}
}

// stageDelay is how long the stalled stages below sleep, and stageGrace how
// long a pipeline goroutine may take to exit once Compute has returned: a
// stage Compute did not wait for is still asleep after the grace.
const (
	stageDelay = time.Second
	stageGrace = 250 * time.Millisecond
)

// requireStagesGone fails unless every goroutine running this package's
// pipeline code exits within stageGrace.
func requireStagesGone(t *testing.T) {
	t.Helper()
	var live []string
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(stageGrace); ; time.Sleep(time.Millisecond) {
		live = live[:0]
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "/internal/shard/shard.go:") || strings.Contains(g, "/internal/shard/spill.go:") {
				live = append(live, g)
			}
		}
		if len(live) == 0 {
			return
		}
		if time.Now().After(deadline) {
			break
		}
	}
	t.Fatalf("%d pipeline goroutines outlived Compute by %v:\n%s", len(live), stageGrace, strings.Join(live, "\n\n"))
}

// stalledRun runs cat through three checkpointed parts into dir with part
// 0's checkpoint write stalled for stageDelay and the faults in points
// armed, calling onLog on each progress line. It reports whether part 0's
// checkpoint was on disk when Compute returned, and Compute's error.
func stalledRun(ctx context.Context, t *testing.T, cat *catalog.Catalog, dir string, onLog func(string), points ...faultpoint.Point) (bool, error) {
	t.Helper()
	points = append(points, faultpoint.Point{Name: "shard.checkpoint.save", Kind: faultpoint.KindDelay, Count: 1, Delay: stageDelay})
	faultpoint.Enable(faultpoint.NewPlan(1, points...))
	defer faultpoint.Disable()
	_, _, err := Compute(ctx, catalog.NewMemorySource(cat), streamConfig(), Options{
		NShards: 3, CheckpointDir: dir,
		Log: func(format string, args ...any) { onLog(format) },
	})
	_, serr := os.Stat(checkpointPath(dir, 0, 3))
	return serr == nil, err
}

// part1Read arms part 1's first spill read — the run's third: part 0 reads
// two files — to act as kind, stalling or failing part 1's preparation.
func part1Read(kind faultpoint.Kind) faultpoint.Point {
	return faultpoint.Point{Name: "shard.spill.read", Kind: kind, After: 2, Count: 1, Delay: stageDelay}
}

// TestPipelineCancelWaitsForStages cancels the run from part 0's progress
// line, while part 1 is being prepared and part 0's checkpoint write is
// stalled. Compute must return context.Canceled only once that write has
// landed and the preparation has stopped, and a rerun into the directory
// must reuse part 0's checkpoint and reproduce the uninterrupted run's bits.
func TestPipelineCancelWaitsForStages(t *testing.T) {
	cat := catalog.Clustered(900, 160, catalog.DefaultClusterParams(), 53)
	want, _, err := compute(cat, streamConfig(), Options{NShards: 3, CheckpointDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	landed, err := stalledRun(ctx, t, cat, dir, func(line string) {
		if strings.Contains(line, "computed") {
			cancel()
		}
	}, part1Read(faultpoint.KindDelay))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if !landed {
		t.Error("Compute returned before part 0's checkpoint write landed")
	}
	requireStagesGone(t)

	got, stats, err := compute(cat, streamConfig(), Options{NShards: 3, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !stats[0].Resumed || stats[1].Resumed {
		t.Errorf("resume restored parts %v, %v, %v; want part 0 only", stats[0].Resumed, stats[1].Resumed, stats[2].Resumed)
	}
	if g, w := resultHash(got), resultHash(want); g != w {
		t.Errorf("resumed hash %s, uninterrupted %s", g, w)
	}
}

// TestPipelineFailureWaitsForStages: a fault no retry absorbs fails the run
// with an error naming its part — not the process — and Compute returns
// with no stage left running and the spill scratch removed. A panic in part
// 1's preparation surfaces once part 0 has run, so part 0's stalled
// checkpoint write must land first; a panic in part 0's engine surfaces
// while part 1's preparation is stalled, which must stop first.
func TestPipelineFailureWaitsForStages(t *testing.T) {
	for _, tc := range []struct {
		name   string
		points []faultpoint.Point
		part   string
		landed bool
	}{
		{"prepare-panics", []faultpoint.Point{part1Read(faultpoint.KindPanic)}, "shard 1/3", true},
		{"engine-panics", []faultpoint.Point{
			part1Read(faultpoint.KindDelay),
			{Name: "core.worker.block", Kind: faultpoint.KindPanic, Count: 1},
		}, "shard 0/3", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cat := catalog.Clustered(900, 160, catalog.DefaultClusterParams(), 59)
			dir := t.TempDir()
			landed, err := stalledRun(context.Background(), t, cat, dir, func(string) {}, tc.points...)
			if err == nil || !strings.Contains(err.Error(), tc.part) || !strings.Contains(err.Error(), "panic") {
				t.Fatalf("got %v, want a panic error naming %s", err, tc.part)
			}
			if landed != tc.landed {
				t.Errorf("part 0's checkpoint on disk at return: %v, want %v", landed, tc.landed)
			}
			requireStagesGone(t)
			if _, err := os.Stat(filepath.Join(dir, spillDirName)); !os.IsNotExist(err) {
				t.Errorf("spill scratch left behind (stat err %v)", err)
			}
		})
	}
}

// BenchmarkStreamSharded is the stream_sharded benchmark workload in
// process, with no calibration loop to divide by: 24,000 clustered galaxies
// at the Outer Rim density, RMax 5, 6 bins, LMax 4, self-count off, one
// worker, streamed from a binary file through 8 checkpointed parts.
func BenchmarkStreamSharded(b *testing.B) {
	const n = 24000
	l := math.Cbrt(n / catalog.OuterRimDensity)
	path := filepath.Join(b.TempDir(), "catalog.glxc")
	if err := catalog.SaveBinary(path, catalog.Clustered(n, l, catalog.DefaultClusterParams(), 1)); err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.RMax, cfg.NBins, cfg.LMax = 5, 6, 4
	cfg.SelfCount = false
	cfg.Workers = 1
	dir := b.TempDir()
	for b.Loop() {
		if _, _, err := Compute(context.Background(), catalog.NewFileSource(path), cfg,
			Options{NShards: 8, CheckpointDir: dir}); err != nil {
			b.Fatal(err)
		}
	}
}
