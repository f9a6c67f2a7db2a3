package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"galactos/internal/catalog"
	"galactos/internal/geom"
)

// smallConfig returns a configuration sized for O(N^3)-verifiable tests.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.RMax = 60
	cfg.NBins = 6
	cfg.LMax = 4
	cfg.Workers = 4
	return cfg
}

func TestComputeEmptyCatalog(t *testing.T) {
	cat := &catalog.Catalog{Box: geom.Periodic{L: 500}}
	res, err := Compute(cat, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.NPrimaries != 0 || res.Pairs != 0 {
		t.Errorf("empty catalog: primaries=%d pairs=%d", res.NPrimaries, res.Pairs)
	}
	for _, v := range res.Aniso {
		if v != 0 {
			t.Fatal("nonzero channel from empty catalog")
		}
	}
}

func TestComputeSinglePrimaryNoPairs(t *testing.T) {
	cat := &catalog.Catalog{
		Box:      geom.Periodic{L: 500},
		Galaxies: []catalog.Galaxy{{Pos: geom.Vec3{X: 10, Y: 10, Z: 10}, Weight: 1}},
	}
	res, err := Compute(cat, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.NPrimaries != 1 || res.Pairs != 0 {
		t.Errorf("primaries=%d pairs=%d", res.NPrimaries, res.Pairs)
	}
}

func TestComputeRejectsBadConfig(t *testing.T) {
	cat := catalog.Uniform(10, 100, 1)
	cases := []func(*Config){
		func(c *Config) { c.RMax = 0 },
		func(c *Config) { c.RMax = 60; c.RMin = 80 },
		func(c *Config) { c.NBins = 0 },
		func(c *Config) { c.LMax = -1 },
		func(c *Config) { c.LMax = 25 },
		func(c *Config) { c.RMax = 70 }, // >= L/2 of the periodic box
	}
	for i, mutate := range cases {
		cfg := smallConfig()
		mutate(&cfg)
		if _, err := Compute(cat, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestComputeRejectsBadMask(t *testing.T) {
	cat := catalog.Uniform(10, 100, 1)
	if _, err := ComputeSubset(cat, make([]bool, 5), smallConfig()); err == nil {
		t.Error("mask length mismatch accepted")
	}
}

func TestPairCountMatchesDirect(t *testing.T) {
	cat := catalog.Uniform(300, 150, 3)
	cfg := smallConfig()
	res, err := Compute(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Direct count of ordered pairs within [RMin, RMax).
	want := uint64(0)
	for i, g := range cat.Galaxies {
		for j, h := range cat.Galaxies {
			if i == j {
				continue
			}
			r := cat.Box.Separation(g.Pos, h.Pos).Norm()
			if r > 0 && r >= cfg.RMin && r < cfg.RMax {
				want++
			}
		}
	}
	if res.Pairs != want {
		t.Errorf("Pairs = %d, want %d", res.Pairs, want)
	}
}

func TestFinderInvariance(t *testing.T) {
	// The engine has one neighbour search: the deprecated finder knobs must
	// move no result bit. On an open catalog offset to ~3000, where a float32
	// coordinate is ~2e-4 coarse, the float32 search must still hand the
	// float64 pair pass every pair below RMax: Pairs equals a float64 count.
	periodic := catalog.Clustered(500, 160, catalog.DefaultClusterParams(), 7)
	offset := catalog.Uniform(2500, 150, 8)
	offset.Box = geom.Periodic{}
	for i := range offset.Galaxies {
		offset.Galaxies[i].Pos = offset.Galaxies[i].Pos.Add(geom.Vec3{X: 3000, Y: -2900, Z: 3100})
	}
	cfg := smallConfig()
	cfg.RMax = 30
	for _, cat := range []*catalog.Catalog{periodic, offset} {
		ref, err := Compute(cat, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, mutate := range []func(*Config){
			func(c *Config) { c.Finder = FinderKD64 },
			func(c *Config) { c.Finder = FinderGrid; c.GridCell = 13 },
			func(c *Config) { c.LeafSize = 7 },
		} {
			c := cfg
			mutate(&c)
			got, err := Compute(cat, c)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameBits(got, ref); err != nil {
				t.Errorf("L=%v Finder=%d LeafSize=%d GridCell=%v: %v", cat.Box.L, c.Finder, c.LeafSize, c.GridCell, err)
			}
		}
		if cat != offset {
			continue
		}
		pts := cat.Positions()
		var want uint64
		for i, p := range pts {
			for j, q := range pts {
				if r := q.Sub(p).Norm(); i != j && r > 0 && r < cfg.RMax {
					want++
				}
			}
		}
		if ref.Pairs != want {
			t.Errorf("offset open catalog: Pairs = %d, float64 count %d", ref.Pairs, want)
		}
	}
}

func TestSubsetMaskRestrictsPrimaries(t *testing.T) {
	cat := catalog.Uniform(200, 150, 9)
	mask := make([]bool, cat.Len())
	for i := 0; i < 50; i++ {
		mask[i] = true
	}
	res, err := ComputeSubset(cat, mask, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.NPrimaries != 50 {
		t.Errorf("NPrimaries = %d, want 50", res.NPrimaries)
	}
}

func TestSubsetsSumToWhole(t *testing.T) {
	// Splitting primaries into two disjoint masks and adding the results
	// must equal the full computation: the exact property the sharded
	// reduction relies on.
	cat := catalog.Clustered(300, 160, catalog.DefaultClusterParams(), 10)
	cfg := smallConfig()
	full, err := Compute(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	maskA := make([]bool, cat.Len())
	maskB := make([]bool, cat.Len())
	for i := range maskA {
		if i%3 == 0 {
			maskA[i] = true
		} else {
			maskB[i] = true
		}
	}
	ra, err := ComputeSubset(cat, maskA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := ComputeSubset(cat, maskB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ra.Add(rb); err != nil {
		t.Fatal(err)
	}
	if ra.NPrimaries != full.NPrimaries || ra.Pairs != full.Pairs {
		t.Fatalf("split primaries/pairs: %d/%d vs %d/%d",
			ra.NPrimaries, ra.Pairs, full.NPrimaries, full.Pairs)
	}
	if d := ra.MaxAbsDiff(full); d > 1e-9*full.MaxAbs() {
		t.Errorf("split sum differs from whole by %v", d)
	}
}

func TestRMinExcludesClosePairs(t *testing.T) {
	cat := catalog.Uniform(200, 100, 11)
	cfg := smallConfig()
	cfg.RMin = 20
	cfg.RMax = 45
	res, err := Compute(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(0)
	for i, g := range cat.Galaxies {
		for j, h := range cat.Galaxies {
			if i == j {
				continue
			}
			r := cat.Box.Separation(g.Pos, h.Pos).Norm()
			if r >= 20 && r < 45 {
				want++
			}
		}
	}
	if res.Pairs != want {
		t.Errorf("Pairs = %d, want %d", res.Pairs, want)
	}
}

func TestIsotropicOnlyMatchesFullOnDiagonal(t *testing.T) {
	cat := catalog.Uniform(200, 150, 12)
	cfg := smallConfig()
	full, err := Compute(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.IsotropicOnly = true
	iso, err := Compute(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l <= cfg.LMax; l++ {
		for b1 := 0; b1 < cfg.NBins; b1++ {
			for b2 := 0; b2 < cfg.NBins; b2++ {
				a := full.IsoZeta(l, b1, b2)
				b := iso.IsoZeta(l, b1, b2)
				if math.Abs(a-b) > 1e-9*(1+math.Abs(a)) {
					t.Fatalf("IsoZeta(%d,%d,%d): full %v vs iso-only %v", l, b1, b2, a, b)
				}
			}
		}
	}
}

func TestTimingsPopulated(t *testing.T) {
	cat := catalog.Uniform(500, 150, 13)
	res, err := Compute(cat, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	tm := res.Timings
	if tm.TreeBuild <= 0 || tm.Gather <= 0 || tm.Consume <= 0 || tm.AlmZeta <= 0 || tm.WorkerTotal <= 0 {
		t.Errorf("timings not populated: %+v", tm)
	}
}

func TestComboTable(t *testing.T) {
	ct := NewComboTable(10)
	if ct.Len() != 286 {
		t.Errorf("combo count = %d, want 286", ct.Len())
	}
	seen := make(map[int]bool)
	for _, c := range ct.Combos {
		if c.L1 > c.L2 || c.M > c.L1 || c.M < 0 {
			t.Fatalf("non-canonical combo %+v", c)
		}
		i, ok := ct.Index(c.L1, c.L2, c.M)
		if !ok || seen[i] {
			t.Fatalf("bad index for %+v", c)
		}
		seen[i] = true
	}
	if _, ok := ct.Index(3, 2, 0); ok {
		t.Error("l1 > l2 accepted as canonical")
	}
}

func TestResultAddRejectsMismatch(t *testing.T) {
	cat := catalog.Uniform(50, 200, 14)
	cfgA := smallConfig()
	ra, err := Compute(cat, cfgA)
	if err != nil {
		t.Fatal(err)
	}
	cfgB := smallConfig()
	cfgB.LMax = 3
	rb, err := Compute(cat, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if err := ra.Add(rb); err == nil {
		t.Error("mismatched results merged")
	}
	cfgC := smallConfig()
	cfgC.NBins = 4
	rc, err := Compute(cat, cfgC)
	if err != nil {
		t.Fatal(err)
	}
	if err := ra.Add(rc); err == nil {
		t.Error("mismatched binnings merged")
	}
}

func TestFlopsEstimatePositive(t *testing.T) {
	cat := catalog.Uniform(100, 200, 15)
	res, err := Compute(cat, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs > 0 && res.FlopsEstimate() <= 0 {
		t.Error("FlopsEstimate not positive")
	}
}

func TestNormalizeFillsWorkerDefault(t *testing.T) {
	unset := smallConfig()
	unset.Workers = 0
	norm, err := unset.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Workers < 1 {
		t.Fatalf("Normalize left Workers at %d", norm.Workers)
	}
}

// TestNormalizeRefusesNonFiniteRange: a NaN radius fails every ordered
// comparison, so a range check written as rmin < 0 || rmax <= rmin passes
// it, and an infinite RMax bins every pair at r = +Inf.
func TestNormalizeRefusesNonFiniteRange(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, r := range [][2]float64{{0, nan}, {nan, 30}, {0, inf}, {nan, nan}} {
		cfg := smallConfig()
		cfg.RMin, cfg.RMax = r[0], r[1]
		if _, err := cfg.Normalize(); err == nil {
			t.Errorf("Normalize accepted RMin %v, RMax %v", r[0], r[1])
		}
	}
}

func TestComputeContextCancelled(t *testing.T) {
	cat := catalog.Clustered(3000, 200, catalog.DefaultClusterParams(), 7)
	cfg := smallConfig()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the engine must not run the primary loop
	res, err := ComputeContext(ctx, cat, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v (res %v)", err, res)
	}
	ctx, cancel = context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := ComputeContext(ctx, cat, cfg); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want nil or DeadlineExceeded, got %v", err)
	}
}
