package galactos_test

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	"galactos"
)

func smallConfig() galactos.Config {
	cfg := galactos.DefaultConfig()
	cfg.RMax = 40
	cfg.NBins = 4
	cfg.LMax = 3
	cfg.Workers = 2
	return cfg
}

// run executes one request through the facade's canonical entrypoint.
func run(tb testing.TB, req galactos.Request) *galactos.RunResult {
	tb.Helper()
	r, err := galactos.Run(context.Background(), req)
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// compute is the single-node run most tests and benchmarks want.
func compute(tb testing.TB, cat *galactos.Catalog, cfg galactos.Config) *galactos.Result {
	tb.Helper()
	return run(tb, galactos.Request{Catalog: cat, Config: cfg}).Result
}

func TestPublicComputeMatchesBruteForce(t *testing.T) {
	cat := galactos.GenerateClustered(100, 150, galactos.DefaultClusterParams(), 2)
	cfg := smallConfig()
	got := compute(t, cat, cfg)
	want, err := galactos.BruteForce3PCF(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.MaxAbsDiff(want); d > 1e-9*want.MaxAbs() {
		t.Errorf("public API result differs from brute force by %v", d)
	}
}

func TestPublicShardedNonPowerOfTwoMatchesSingle(t *testing.T) {
	cat := galactos.GenerateUniform(600, 180, 3)
	cfg := smallConfig()
	single := compute(t, cat, cfg)
	sharded := run(t, galactos.Request{Catalog: cat, Config: cfg,
		Backend: galactos.BackendSpec{Name: "sharded", Shards: 3}})
	if len(sharded.Units) != 3 {
		t.Errorf("%d shard stats", len(sharded.Units))
	}
	if d := sharded.Result.MaxAbsDiff(single); d > 1e-9*single.MaxAbs() {
		t.Errorf("sharded differs by %v", d)
	}
	owned := 0
	for _, u := range sharded.Units {
		owned += u.NOwned
	}
	if owned != cat.Len() {
		t.Errorf("shards own %d galaxies, want %d", owned, cat.Len())
	}
}

func TestPublicShardedMatchesSingle(t *testing.T) {
	cat := galactos.GenerateClustered(700, 170, galactos.DefaultClusterParams(), 4)
	cfg := smallConfig()
	single := compute(t, cat, cfg)
	sharded := run(t, galactos.Request{Catalog: cat, Config: cfg,
		Backend: galactos.BackendSpec{Name: "sharded", Shards: 4}})
	if len(sharded.Units) != 4 {
		t.Errorf("%d shard stats", len(sharded.Units))
	}
	if sharded.Result.Pairs != single.Pairs {
		t.Errorf("sharded pairs %d, want %d", sharded.Result.Pairs, single.Pairs)
	}
	if d := sharded.Result.MaxAbsDiff(single); d > 1e-9*single.MaxAbs() {
		t.Errorf("sharded differs by %v", d)
	}
}

func TestPublicResultIO(t *testing.T) {
	cat := galactos.GenerateClustered(300, 150, galactos.DefaultClusterParams(), 5)
	res := compute(t, cat, smallConfig())
	path := filepath.Join(t.TempDir(), "zeta.gres")
	if err := galactos.SaveResult(path, res); err != nil {
		t.Fatal(err)
	}
	back, err := galactos.LoadResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if d := back.MaxAbsDiff(res); d != 0 {
		t.Errorf("result changed by %v in the file round trip", d)
	}
}

// TestPublicCatalogIO: SaveCatalog writes the format LoadCatalog reads for
// the path, so a binary and a ".csv" path both round-trip (SaveCatalog used
// to write binary to a .csv path, which LoadCatalog then failed to parse).
func TestPublicCatalogIO(t *testing.T) {
	dir := t.TempDir()
	cat := galactos.GenerateUniform(50, 90, 4)
	for _, name := range []string{"cat.glxc", "cat.csv"} {
		path := filepath.Join(dir, name)
		if err := galactos.SaveCatalog(path, cat); err != nil {
			t.Fatal(err)
		}
		got, err := galactos.LoadCatalog(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Len() != 50 || got.Box.L != 90 {
			t.Errorf("%s round trip: N=%d L=%v", name, got.Len(), got.Box.L)
		}
	}
}

func TestPublicTwoPCF(t *testing.T) {
	cat := galactos.GenerateClustered(2000, 250, galactos.DefaultClusterParams(), 5)
	pc, err := galactos.TwoPCF(cat, galactos.TwoPCFConfig{RMax: 30, NBins: 3, LMax: 2})
	if err != nil {
		t.Fatal(err)
	}
	if pc.NPairs == 0 {
		t.Error("no pairs counted")
	}
	random := galactos.GenerateUniform(6000, 250, 6)
	xi, err := galactos.LandySzalay(cat, random, galactos.TwoPCFConfig{RMin: 1, RMax: 15, NBins: 2})
	if err != nil {
		t.Fatal(err)
	}
	if xi[0] < 0.5 {
		t.Errorf("clustered catalog shows xi = %v at small scales", xi[0])
	}
}

func TestPublicDataMinusRandomSuppressesZeta(t *testing.T) {
	// The D-R construction on a *random* "data" catalog must give channels
	// consistent with zero (the geometry correction removes the mean).
	data := galactos.GenerateUniform(300, 150, 7)
	random := galactos.GenerateUniform(1200, 150, 8)
	combined, err := galactos.DataMinusRandom(data, random)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	resDR := compute(t, combined, cfg)
	resD := compute(t, data, cfg)
	// The raw data monopole is large and positive; the D-R monopole must be
	// much smaller in magnitude.
	var raw, corr float64
	for b := 0; b < cfg.NBins; b++ {
		raw += math.Abs(resD.IsoZeta(0, b, b))
		corr += math.Abs(resDR.IsoZeta(0, b, b))
	}
	if corr > raw/5 {
		t.Errorf("D-R monopole %v not suppressed vs raw %v", corr, raw)
	}
}

func TestPublicJackknife(t *testing.T) {
	samples := [][]float64{{1, 2}, {1.5, 2.1}, {0.5, 1.3}, {1.2, 2.6}}
	c, err := galactos.JackknifeCovariance(samples)
	if err != nil {
		t.Fatal(err)
	}
	if c.At(0, 0) <= 0 {
		t.Error("variance not positive")
	}
	if _, err := c.Inverse(); err != nil {
		t.Errorf("2x2 jackknife covariance should invert: %v", err)
	}
}

func TestPublicRSD(t *testing.T) {
	cat := galactos.GenerateUniform(200, 100, 9)
	d := galactos.ApplyRSD(cat, 4, 10)
	if d.Len() != cat.Len() {
		t.Error("RSD changed catalog size")
	}
}

func TestPublicBAOGenerator(t *testing.T) {
	cat := galactos.GenerateBAO(2000, 500, galactos.DefaultBAOParams(), 11)
	if err := cat.Validate(); err != nil {
		t.Fatal(err)
	}
}
