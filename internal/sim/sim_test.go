package sim

import (
	"math"
	"testing"
	"time"

	"galactos/internal/catalog"
	"galactos/internal/core"
)

func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.RMax = 40
	cfg.NBins = 4
	cfg.LMax = 3
	cfg.Workers = 2
	cfg.SelfCount = false
	return cfg
}

func TestThreadScaling(t *testing.T) {
	cat := catalog.Uniform(400, 200, 1)
	pts, err := ThreadScaling(cat, testConfig(), []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	if pts[0].Speedup != 1 {
		t.Errorf("first speedup = %v, want 1", pts[0].Speedup)
	}
	for _, p := range pts {
		if p.Elapsed <= 0 {
			t.Errorf("workers=%d: elapsed %v", p.Workers, p.Elapsed)
		}
	}
}

func TestWeakScalingRuns(t *testing.T) {
	// Density-matched boxes at the Outer Rim density are small at test
	// scale: 600 galaxies/rank is a ~20 Mpc/h cube, so RMax must shrink
	// below half the box.
	cfg := testConfig()
	cfg.RMax = 8
	pts, err := WeakScaling([]int{1, 2, 4}, 600, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	for i, p := range pts {
		if p.Galaxies == 0 || p.NodeTime <= 0 {
			t.Errorf("point %d: %+v", i, p)
		}
		if p.PairImbalance < 1 && p.TotalPairs > 0 {
			t.Errorf("point %d: imbalance %v < 1", i, p.PairImbalance)
		}
		if p.PrimaryImbalance > 1.5 {
			t.Errorf("point %d: primary imbalance %v too high (k-d split balances primaries)", i, p.PrimaryImbalance)
		}
		// Density-matched boxes grow with rank count.
		if i > 0 && p.BoxL <= pts[i-1].BoxL {
			t.Errorf("box did not grow: %v then %v", pts[i-1].BoxL, p.BoxL)
		}
	}
}

func TestStrongScalingConservesWork(t *testing.T) {
	cat := catalog.Clustered(1000, 250, catalog.DefaultClusterParams(), 5)
	cfg := testConfig()
	pts, err := StrongScaling([]int{1, 2, 5}, cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The same catalog across rank counts: total pairs must be identical.
	for _, p := range pts[1:] {
		if p.TotalPairs != pts[0].TotalPairs {
			t.Errorf("pairs changed with ranks: %d vs %d", p.TotalPairs, pts[0].TotalPairs)
		}
		if p.Galaxies != pts[0].Galaxies {
			t.Errorf("galaxies changed with ranks")
		}
	}
	// The work divides: per-rank pairs and primaries — the mean, and the
	// heaviest rank's share (imbalance x mean), the work analogue of
	// time-to-solution — strictly drop from 1 rank to 5. No wall-clock
	// inequality: a rank here runs ~2 ms, which a loaded host reorders.
	perRank := func(p ScalePoint) [4]float64 {
		meanPairs := float64(p.TotalPairs) / float64(p.Ranks)
		meanPrim := float64(p.Galaxies) / float64(p.Ranks)
		return [4]float64{meanPairs, p.PairImbalance * meanPairs, meanPrim, p.PrimaryImbalance * meanPrim}
	}
	one, five := perRank(pts[0]), perRank(pts[2])
	for i, what := range []string{"mean pairs", "max pairs", "mean primaries", "max primaries"} {
		if five[i] >= one[i] {
			t.Errorf("per-rank %s did not drop: %v at 1 rank, %v at 5", what, one[i], five[i])
		}
	}
}

func TestBreakdownFractionsSumToOne(t *testing.T) {
	cat := catalog.Uniform(500, 200, 7)
	cfg := testConfig()
	cfg.SelfCount = true
	res, err := core.Compute(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fr := BreakdownFractions(res.Timings)
	sum := 0.0
	for _, v := range fr {
		if v < 0 {
			t.Errorf("negative fraction: %v", fr)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("fractions sum to %v", sum)
	}
	if BreakdownFractions(core.Breakdown{}) != nil {
		t.Error("zero breakdown should give nil")
	}
}

func TestSE15Comparison(t *testing.T) {
	cat := catalog.Uniform(500, 200, 11)
	iso, aniso, err := SE15Comparison(cat, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if iso <= 0 || aniso <= 0 {
		t.Error("times not positive")
	}
}

func TestCalibrate(t *testing.T) {
	cat := catalog.Uniform(800, 220, 13)
	cal, err := Calibrate(cat, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if cal.PairsPerSec <= 0 {
		t.Errorf("pair rate %v", cal.PairsPerSec)
	}
	if cal.TreeBuildPerGalaxy < 0 {
		t.Errorf("tree build %v", cal.TreeBuildPerGalaxy)
	}
	if cal.Imbalance < 1 {
		t.Errorf("imbalance %v", cal.Imbalance)
	}
}

func TestBucketSweep(t *testing.T) {
	cat := catalog.Uniform(400, 200, 15)
	pts, err := BucketSweep(cat, testConfig(), []int{8, 128})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	// The paper's flop/byte at k=128 is ~9.6.
	if math.Abs(pts[1].FlopByte-9.6) > 0.1 {
		t.Errorf("flop/byte at 128 = %v, want ~9.6", pts[1].FlopByte)
	}
	if pts[0].FlopByte >= pts[1].FlopByte {
		t.Error("flop/byte should grow with bucket size")
	}
	for _, p := range pts {
		if p.Elapsed <= 0 {
			t.Error("elapsed not positive")
		}
	}
}

func TestScalingPointMatchesDirectCompute(t *testing.T) {
	// The cluster simulation must reproduce the single-node result.
	cat := catalog.Clustered(800, 230, catalog.DefaultClusterParams(), 17)
	cfg := testConfig()
	single, err := core.Compute(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, total, err := scalingPoint(cat, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if total.Pairs != single.Pairs {
		t.Errorf("pairs %d vs %d", total.Pairs, single.Pairs)
	}
	if d := total.MaxAbsDiff(single); d > 1e-9*single.MaxAbs() {
		t.Errorf("cluster sim differs from single node by %v", d)
	}
	// Halo selection assumes one periodic image per axis: an rmax at or
	// past half the box must be rejected, not silently under-haloed.
	cfg.RMax = cat.Box.L / 2
	if _, _, err := scalingPoint(cat, 3, cfg); err == nil {
		t.Error("rmax >= L/2 accepted")
	}
	var _ time.Duration // keep the time import honest under refactors
}
