package scenario

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"galactos/internal/catalog"
	"galactos/internal/core"
	"galactos/internal/exec"
	"galactos/internal/partition"
)

// surveyFixture builds the slab-masked data + randoms pair of the survey
// scenario at a test-controlled size.
func surveyFixture(n int, seed int64) (data, randoms *catalog.Catalog) {
	const l = 240.0
	slab := func(c *catalog.Catalog) *catalog.Catalog {
		out := &catalog.Catalog{}
		for _, g := range c.Galaxies {
			if math.Abs(g.Pos.Z-l/2) < l/4 {
				out.Galaxies = append(out.Galaxies, g)
			}
		}
		return out
	}
	return slab(catalog.Clustered(n, l, catalog.DefaultClusterParams(), seed)),
		slab(catalog.Uniform(4*n, l, seed+1))
}

func surveyConfig() core.Config {
	return core.Config{
		RMax: 40, NBins: 4, LMax: 4,
		LOS: core.LOSPlaneParallel, SelfCount: false, IsotropicOnly: true,
	}
}

func jackknifeConfig() core.Config {
	return core.Config{
		RMax: 30, NBins: 4, LMax: 2,
		LOS: core.LOSPlaneParallel, SelfCount: false, IsotropicOnly: true,
	}
}

// assertResultBitwise compares two engine results bit for bit.
func assertResultBitwise(t *testing.T, label string, a, b *core.Result) {
	t.Helper()
	if a.Pairs != b.Pairs || a.NPrimaries != b.NPrimaries ||
		math.Float64bits(a.SumWeight) != math.Float64bits(b.SumWeight) {
		t.Fatalf("%s: counters differ (%d/%d/%v vs %d/%d/%v)", label,
			a.Pairs, a.NPrimaries, a.SumWeight, b.Pairs, b.NPrimaries, b.SumWeight)
	}
	for i := range a.Aniso {
		if a.Aniso[i] != b.Aniso[i] {
			t.Fatalf("%s: Aniso[%d] differs: %v vs %v", label, i, a.Aniso[i], b.Aniso[i])
		}
	}
}

// settleGoroutines polls until the goroutine count returns to the baseline
// (cancelled workers need a moment to unwind).
func settleGoroutines(baseline int) int {
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestEdgeCorrectDetectsClustering: through the survey estimator, the
// corrected monopole of clustered data must be positive at small scales and
// much larger than for random "data".
func TestEdgeCorrectDetectsClustering(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.RMax, cfg.NBins, cfg.LMax, cfg.Workers = 35, 3, 3, 2
	clustered := catalog.Clustered(1500, 150, catalog.DefaultClusterParams(), 5)
	randomData := catalog.Uniform(1500, 150, 6)
	randoms := catalog.Uniform(6000, 150, 7)
	ctx := context.Background()
	cl, err := RunSurveyEstimator(ctx, exec.Request{Config: cfg}, clustered, randoms)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := RunSurveyEstimator(ctx, exec.Request{Config: cfg}, randomData, randoms)
	if err != nil {
		t.Fatal(err)
	}
	if c, r := cl.Corrected.Zeta[0][0], rd.Corrected.Zeta[0][0]; c < 5*math.Abs(r) {
		t.Errorf("clustered corrected monopole %v not dominant over random %v", c, r)
	}
}

// TestSurveyEstimatorKillResume: cancelling the survey workload mid-first-
// stage leaves resumable checkpoints and no goroutines; resuming reuses at
// least one checkpoint and reproduces the uninterrupted result bitwise.
func TestSurveyEstimatorKillResume(t *testing.T) {
	data, randoms := surveyFixture(900, 5)
	cfg := surveyConfig()
	dir := t.TempDir()

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired atomic.Int32
	killed := exec.Request{
		Config:  cfg,
		Backend: exec.Spec{Name: "sharded", Shards: 6, CheckpointDir: dir},
		Log: func(format string, args ...any) {
			if fired.Add(1) == 1 {
				cancel()
			}
		},
	}
	if _, err := RunSurveyEstimator(ctx, killed, data, randoms); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := settleGoroutines(baseline); n > baseline {
		t.Fatalf("goroutine leak after cancel: %d before, %d after", baseline, n)
	}

	resume := exec.Request{Config: cfg, Backend: exec.Spec{Name: "sharded", Shards: 6, CheckpointDir: dir, Resume: true}}
	sv, err := RunSurveyEstimator(context.Background(), resume, data, randoms)
	if err != nil {
		t.Fatal(err)
	}
	resumed := 0
	for _, u := range sv.DMR.Units {
		if u.Resumed {
			resumed++
		}
	}
	if resumed == 0 {
		t.Fatal("resume recomputed every D-R shard; expected checkpoint reuse")
	}

	clean, err := RunSurveyEstimator(context.Background(), exec.Request{Config: cfg, Backend: exec.Spec{Name: "sharded", Shards: 6}}, data, randoms)
	if err != nil {
		t.Fatal(err)
	}
	assertResultBitwise(t, "survey D-R resumed vs uninterrupted", sv.DMR.Result, clean.DMR.Result)
	assertResultBitwise(t, "survey randoms resumed vs uninterrupted", sv.Randoms.Result, clean.Randoms.Result)
	for l := range clean.Corrected.Zeta {
		for i := range clean.Corrected.Zeta[l] {
			if sv.Corrected.Zeta[l][i] != clean.Corrected.Zeta[l][i] {
				t.Fatalf("corrected zeta_%d[%d] differs after resume", l, i)
			}
		}
	}
}

// TestJackknifeKillResume: same contract for the resampling workload — the
// full-sample stage's checkpoints survive the kill and the resumed
// covariance is bitwise identical to an uninterrupted run.
func TestJackknifeKillResume(t *testing.T) {
	cat := catalog.Uniform(1000, 200, 9)
	cfg := jackknifeConfig()
	dir := t.TempDir()

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired atomic.Int32
	killed := exec.Request{
		Config:  cfg,
		Backend: exec.Spec{Name: "sharded", Shards: 6, CheckpointDir: dir},
		Log: func(format string, args ...any) {
			if fired.Add(1) == 1 {
				cancel()
			}
		},
	}
	if _, err := RunJackknife(ctx, killed, cat, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := settleGoroutines(baseline); n > baseline {
		t.Fatalf("goroutine leak after cancel: %d before, %d after", baseline, n)
	}

	resume := exec.Request{Config: cfg, Backend: exec.Spec{Name: "sharded", Shards: 6, CheckpointDir: dir, Resume: true}}
	jk, err := RunJackknife(context.Background(), resume, cat, 4)
	if err != nil {
		t.Fatal(err)
	}
	resumed := 0
	for _, u := range jk.FullRun.Units {
		if u.Resumed {
			resumed++
		}
	}
	if resumed == 0 {
		t.Fatal("resume recomputed every full-sample shard; expected checkpoint reuse")
	}

	clean, err := RunJackknife(context.Background(), exec.Request{Config: cfg, Backend: exec.Spec{Name: "sharded", Shards: 6}}, cat, 4)
	if err != nil {
		t.Fatal(err)
	}
	assertResultBitwise(t, "jackknife full resumed vs uninterrupted", jk.FullRun.Result, clean.FullRun.Result)
	for i := range clean.Cov.Data {
		if math.Float64bits(jk.Cov.Data[i]) != math.Float64bits(clean.Cov.Data[i]) {
			t.Fatalf("covariance entry %d differs after resume", i)
		}
	}
}

// TestJackknifeRegionsPartitionExactly: the partition splitter assigns
// every galaxy to exactly one region — no drops or duplicates at region
// boundaries.
func TestJackknifeRegionsPartitionExactly(t *testing.T) {
	cat := catalog.Uniform(1200, 200, 3)
	parts, err := partition.Split(cat, 8)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, cat.Len())
	for p, part := range parts {
		if len(part.Index) == 0 {
			t.Errorf("region %d is empty", p)
		}
		for _, idx := range part.Index {
			if seen[idx] {
				t.Fatalf("galaxy %d assigned to more than one region", idx)
			}
			seen[idx] = true
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("galaxy %d assigned to no region", i)
		}
	}
}

// TestJackknifeCovarianceProperties: on a uniform catalog, the estimated
// covariance is symmetric and PSD, every sample has the statistic's
// dimension, and the leave-one-out mean tracks the full-sample statistic
// (to the ~20% boundary-truncation bias of delete-one holes, not to
// jackknife-sigma precision).
func TestJackknifeCovarianceProperties(t *testing.T) {
	cat := catalog.Uniform(1400, 200, 21)
	cfg := jackknifeConfig()
	jk, err := RunJackknife(context.Background(), exec.Request{Config: cfg}, cat, 8)
	if err != nil {
		t.Fatal(err)
	}
	if jk.Regions != 8 || len(jk.Samples) != 8 {
		t.Fatalf("got %d regions, %d samples", jk.Regions, len(jk.Samples))
	}
	total := 0
	for _, c := range jk.RegionCounts {
		total += c
	}
	if total != cat.Len() {
		t.Fatalf("region counts sum to %d, want %d", total, cat.Len())
	}
	for i, s := range jk.Samples {
		if len(s) != cfg.NBins {
			t.Fatalf("sample %d has dimension %d, want %d", i, len(s), cfg.NBins)
		}
	}
	if e := jk.Cov.SymmetryError(); e != 0 {
		t.Errorf("covariance symmetry error %g, want exact symmetry", e)
	}
	if !jk.Cov.IsPSD(1e-10) {
		t.Error("covariance is not PSD")
	}
	for i := range jk.Full {
		if diff := math.Abs(jk.Mean[i] - jk.Full[i]); diff > 0.2*math.Abs(jk.Full[i])+1e-12 {
			t.Errorf("bin %d: LOO mean %g deviates from full-sample %g", i, jk.Mean[i], jk.Full[i])
		}
	}
}

// TestStagedScopesCheckpointDirs: a stage of a template request gets its own
// catalog, a checkpointed backend a disjoint per-stage directory, and keeps
// everything else (shards, resume, label, logger); an uncheckpointed
// spec is untouched. A template that already names a catalog is refused.
func TestStagedScopesCheckpointDirs(t *testing.T) {
	cat := catalog.Uniform(10, 200, 1)
	var logged atomic.Int32
	tmpl := exec.Request{
		Backend: exec.Spec{Name: "sharded", Shards: 3, CheckpointDir: "/ckpt", Resume: true},
		Label:   "jackknife",
		Log:     func(string, ...any) { logged.Add(1) },
	}
	st := stage(tmpl, "loo-001", cat)
	if want := filepath.Join("/ckpt", "loo-001"); st.Backend.CheckpointDir != want {
		t.Errorf("CheckpointDir = %q, want %q", st.Backend.CheckpointDir, want)
	}
	if st.Backend.Shards != 3 || !st.Backend.Resume || st.Catalog != cat || st.Label != "jackknife" {
		t.Errorf("stage request = %+v", st)
	}
	if st.Log("x"); logged.Load() != 1 {
		t.Error("stage dropped the template's logger")
	}
	if tmpl.Backend.CheckpointDir != "/ckpt" {
		t.Errorf("stage changed the template: %q", tmpl.Backend.CheckpointDir)
	}
	plain := exec.Spec{Name: "sharded", Shards: 2}
	if st := stage(exec.Request{Backend: plain}, "dmr", cat); st.Backend != plain {
		t.Errorf("uncheckpointed spec changed: %+v", st.Backend)
	}

	for _, named := range []exec.Request{{Catalog: cat}, {Path: "cat.glxc"}, {Source: catalog.NewMemorySource(cat)}} {
		named.Config = jackknifeConfig()
		if _, err := RunJackknife(context.Background(), named, cat, 4); err == nil {
			t.Errorf("jackknife accepted a template naming a catalog: %+v", named)
		}
		if _, err := RunSurveyEstimator(context.Background(), named, cat, cat); err == nil {
			t.Errorf("survey estimator accepted a template naming a catalog: %+v", named)
		}
	}
}

// TestRunJackknifeRejectsBadRegions pins the argument contract.
func TestRunJackknifeRejectsBadRegions(t *testing.T) {
	cat := catalog.Uniform(100, 200, 1)
	if _, err := RunJackknife(context.Background(), exec.Request{Config: jackknifeConfig()}, cat, 1); err == nil {
		t.Error("regions = 1 accepted")
	}
}

// TestOutcomeHashDiscriminates: the canonical hash changes when any payload
// bit changes and is insensitive to nothing it covers.
func TestOutcomeHashDiscriminates(t *testing.T) {
	o, err := Get("periodic-iso")
	if err != nil {
		t.Fatal(err)
	}
	a, err := o.Run(context.Background(), exec.Spec{}, 500, 2)
	if err != nil {
		t.Fatal(err)
	}
	h := a.GoldenHash()
	if h2 := a.GoldenHash(); h2 != h {
		t.Fatalf("hash not stable: %s vs %s", h, h2)
	}
	orig := a.Result.Aniso[0]
	a.Result.Aniso[0] = complex(math.Nextafter(real(orig), math.Inf(1)), imag(orig))
	if a.GoldenHash() == h {
		t.Error("hash unchanged after one-ulp payload perturbation")
	}
	a.Result.Aniso[0] = orig
	rel, err := a.MaxRelDiff(a)
	if err != nil || rel != 0 {
		t.Errorf("self-diff = %v, %v", rel, err)
	}
}
