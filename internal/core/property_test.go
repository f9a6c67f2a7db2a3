package core

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"galactos/internal/catalog"
	"galactos/internal/geom"
	"galactos/internal/hist"
	"galactos/internal/nbr"
	"galactos/internal/sphharm"
)

// Physics property tests: invariances the estimator must satisfy exactly,
// independent of any oracle.

func propConfig() Config {
	cfg := DefaultConfig()
	cfg.RMax = 45
	cfg.NBins = 4
	cfg.LMax = 4
	cfg.Workers = 3
	return cfg
}

func TestWeightScalingCubes(t *testing.T) {
	// zeta is a weighted triplet sum: scaling every weight by s must scale
	// every channel by exactly s^3.
	cat := catalog.Clustered(250, 180, catalog.DefaultClusterParams(), 51)
	cfg := propConfig()
	base, err := Compute(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const s = 2.5
	scaled := &catalog.Catalog{Box: cat.Box, Galaxies: make([]catalog.Galaxy, cat.Len())}
	for i, g := range cat.Galaxies {
		scaled.Galaxies[i] = catalog.Galaxy{Pos: g.Pos, Weight: g.Weight * s}
	}
	got, err := Compute(scaled, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.Aniso {
		want := base.Aniso[i] * complex(s*s*s, 0)
		if cmplx.Abs(got.Aniso[i]-want) > 1e-9*(1+cmplx.Abs(want)) {
			t.Fatalf("channel %d: %v, want %v (s^3 scaling)", i, got.Aniso[i], want)
		}
	}
}

func TestWeightScalingExact(t *testing.T) {
	// Doubling every weight scales every product in the estimator by a power
	// of two, which rounding cannot see: every Aniso channel must be exactly
	// 8x (bit for bit), SumWeight exactly 2x and Pairs unchanged — for every
	// LOS mode, with and without IsotropicOnly, on a periodic and an open
	// catalog. An oracle that shares nothing with internal/bruteforce.
	periodic := catalog.Clustered(250, 180, catalog.DefaultClusterParams(), 52)
	open := &catalog.Catalog{Galaxies: periodic.Galaxies}
	for _, cat := range []*catalog.Catalog{periodic, open} {
		doubled := &catalog.Catalog{Box: cat.Box, Galaxies: make([]catalog.Galaxy, cat.Len())}
		for i, g := range cat.Galaxies {
			doubled.Galaxies[i] = catalog.Galaxy{Pos: g.Pos, Weight: 2 * g.Weight}
		}
		for _, los := range []LOSMode{LOSPlaneParallel, LOSRadial, LOSMidpoint} {
			for _, iso := range []bool{false, true} {
				cfg := propConfig()
				cfg.LOS, cfg.IsotropicOnly = los, iso
				cfg.Observer = geom.Vec3{X: -200, Y: -100, Z: -350}
				base, err := Compute(cat, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Compute(doubled, cfg)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("L=%v %v iso=%v", cat.Box.L, los, iso)
				if base.Pairs == 0 || base.MaxAbs() == 0 {
					t.Fatalf("%s: no pairs or an all-zero result; the test lost its shape", name)
				}
				if got.Pairs != base.Pairs {
					t.Fatalf("%s: doubling the weights moved Pairs: %d vs %d", name, got.Pairs, base.Pairs)
				}
				if math.Float64bits(got.SumWeight) != math.Float64bits(2*base.SumWeight) {
					t.Fatalf("%s: SumWeight %v, want exactly 2 x %v", name, got.SumWeight, base.SumWeight)
				}
				for i, v := range base.Aniso {
					w := got.Aniso[i]
					if math.Float64bits(real(w)) != math.Float64bits(8*real(v)) ||
						math.Float64bits(imag(w)) != math.Float64bits(8*imag(v)) {
						t.Fatalf("%s: channel %d is %v, want exactly 8 x %v", name, i, w, v)
					}
				}
			}
		}
	}
}

func TestTranslationInvariancePeriodic(t *testing.T) {
	// A periodic box with the plane-parallel line of sight has no preferred
	// origin: translating every galaxy (with wrap) must leave all channels
	// unchanged.
	cat := catalog.Clustered(300, 160, catalog.DefaultClusterParams(), 53)
	cfg := propConfig()
	base, err := Compute(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	shift := geom.Vec3{X: 47.3, Y: 101.9, Z: 13.1}
	moved := &catalog.Catalog{Box: cat.Box, Galaxies: make([]catalog.Galaxy, cat.Len())}
	for i, g := range cat.Galaxies {
		moved.Galaxies[i] = catalog.Galaxy{Pos: cat.Box.Wrap(g.Pos.Add(shift)), Weight: g.Weight}
	}
	got, err := Compute(moved, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Pairs != base.Pairs {
		t.Fatalf("translation changed pair count: %d vs %d", got.Pairs, base.Pairs)
	}
	if d := got.MaxAbsDiff(base); d > 1e-8*base.MaxAbs() {
		t.Errorf("translation changed channels by %v", d)
	}
}

func TestGlobalRotationInvarianceIsotropic(t *testing.T) {
	// Rotating the whole catalog about the origin (open boundaries) must
	// leave the isotropic multipoles unchanged; with the radial line of
	// sight (which co-rotates with the data) the anisotropic channels are
	// invariant too.
	cat := catalog.Uniform(250, 140, 57)
	cat.Box = geom.Periodic{}
	cfg := propConfig()
	cfg.LOS = LOSRadial
	cfg.Observer = geom.Vec3{} // origin
	base, err := Compute(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rot := geom.ToLineOfSight(geom.Vec3{X: 1, Y: 2, Z: 3}) // an arbitrary rotation
	turned := &catalog.Catalog{Galaxies: make([]catalog.Galaxy, cat.Len())}
	for i, g := range cat.Galaxies {
		turned.Galaxies[i] = catalog.Galaxy{Pos: rot.Apply(g.Pos), Weight: g.Weight}
	}
	got, err := Compute(turned, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Pairs != base.Pairs {
		t.Fatalf("rotation changed pair count: %d vs %d", got.Pairs, base.Pairs)
	}
	scale := base.MaxAbs()
	for l := 0; l <= cfg.LMax; l++ {
		for b1 := 0; b1 < cfg.NBins; b1++ {
			for b2 := 0; b2 < cfg.NBins; b2++ {
				a := base.IsoZeta(l, b1, b2)
				b := got.IsoZeta(l, b1, b2)
				if math.Abs(a-b) > 1e-8*scale {
					t.Fatalf("iso zeta_%d(%d,%d) changed under rotation: %v vs %v", l, b1, b2, a, b)
				}
			}
		}
	}
	// Full anisotropic invariance under co-rotating LOS.
	if d := got.MaxAbsDiff(base); d > 1e-8*scale {
		t.Errorf("anisotropic channels changed by %v under co-rotating frame", d)
	}
}

func TestLOSQuarterTurnInvariance(t *testing.T) {
	// A quarter turn about the line of sight multiplies each a_lm by a phase
	// e^{-im pi/2} that cancels in every channel's a_{l1 m} a*_{l2 m}, so the
	// full anisotropic ladder (SelfCount on) must not move: on a periodic
	// clustered box under plane-parallel LOS, (x, y) -> (L - y, x); on an
	// open box under radial LOS, (x, y) -> (-y, x) of the galaxies and the
	// observer, so each primary's frame turns about its own line of sight.
	// Neighbour order moves with the coordinates, so the check is within
	// 1e-12 of the largest channel rather than bitwise.
	periodic := catalog.Clustered(300, 160, catalog.DefaultClusterParams(), 65)
	open := &catalog.Catalog{Galaxies: periodic.Galaxies}
	for _, tc := range []struct {
		name string
		cat  *catalog.Catalog
		los  LOSMode
		turn func(geom.Vec3) geom.Vec3
	}{
		{"periodic plane-parallel", periodic, LOSPlaneParallel, func(p geom.Vec3) geom.Vec3 {
			return periodic.Box.Wrap(geom.Vec3{X: periodic.Box.L - p.Y, Y: p.X, Z: p.Z})
		}},
		{"open radial", open, LOSRadial, func(p geom.Vec3) geom.Vec3 {
			return geom.Vec3{X: -p.Y, Y: p.X, Z: p.Z}
		}},
	} {
		cfg := propConfig()
		cfg.LOS, cfg.SelfCount, cfg.IsotropicOnly = tc.los, true, false
		if tc.los == LOSRadial {
			cfg.Observer = geom.Vec3{X: -200, Y: -100, Z: -350}
		}
		base, err := Compute(tc.cat, cfg)
		if err != nil {
			t.Fatal(err)
		}
		turned := &catalog.Catalog{Box: tc.cat.Box, Galaxies: make([]catalog.Galaxy, tc.cat.Len())}
		for i, g := range tc.cat.Galaxies {
			turned.Galaxies[i] = catalog.Galaxy{Pos: tc.turn(g.Pos), Weight: g.Weight}
		}
		if tc.los == LOSRadial {
			cfg.Observer = tc.turn(cfg.Observer)
		}
		got, err := Compute(turned, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if base.Pairs == 0 || got.Pairs != base.Pairs {
			t.Fatalf("%s: %d pairs after the turn, %d before", tc.name, got.Pairs, base.Pairs)
		}
		scale := base.MaxAbs()
		for i, v := range base.Aniso {
			if d := cmplx.Abs(got.Aniso[i] - v); d > 1e-12*scale {
				t.Fatalf("%s: channel %d moved by %v under the quarter turn (%v vs %v, largest %v)",
					tc.name, i, d, got.Aniso[i], v, scale)
			}
		}
	}
}

func TestTouchedListMatchesDenseScanBitwise(t *testing.T) {
	// The engine-level pin of one answer on any SIMD dispatch: under the
	// AVX-512 and the portable lane bodies whole runs — Pairs, NPrimaries,
	// SumWeight and every Aniso bit — are identical, on a periodic and an open
	// catalog, across the LOS modes, IsotropicOnly, SelfCount and sparse
	// touch lists. (The table drove the dense-scan reference mode until that
	// was deleted; the name stays because the suite's floor lists it.)
	if !sphharm.HasAVX512() {
		t.Skip("no vector path on this host; dispatch is the generic code")
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"default", func(*Config) {}},
		{"isotropic-only", func(c *Config) { c.IsotropicOnly = true }},
		{"los-radial", func(c *Config) {
			c.LOS = LOSRadial
			c.Observer = geom.Vec3{X: -300, Y: -250, Z: -400}
		}},
		{"los-midpoint", func(c *Config) {
			c.LOS = LOSMidpoint
			c.Observer = geom.Vec3{X: -300, Y: -250, Z: -400}
		}},
		{"los-midpoint-isotropic", func(c *Config) {
			c.LOS = LOSMidpoint
			c.Observer = geom.Vec3{X: -300, Y: -250, Z: -400}
			c.IsotropicOnly = true
		}},
		{"no-selfcount", func(c *Config) { c.SelfCount = false }},
		{"sparse-bins", func(c *Config) {
			// RMin pushes many primaries to touch only a few outer bins,
			// exercising partially-touched reductions.
			c.RMin = 25
			c.NBins = 12
		}},
	}
	periodic := catalog.Clustered(350, 180, catalog.DefaultClusterParams(), 71)
	open := &catalog.Catalog{Galaxies: periodic.Galaxies}
	defer sphharm.SetLaneDispatch(true)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, cat := range []*catalog.Catalog{periodic, open} {
				cfg := propConfig()
				tc.mutate(&cfg)
				var runs [2]*Result
				for i, vector := range []bool{true, false} {
					sphharm.SetLaneDispatch(vector)
					var err error
					if runs[i], err = Compute(cat, cfg); err != nil {
						t.Fatal(err)
					}
				}
				if err := sameBits(runs[1], runs[0]); err != nil {
					t.Fatalf("L=%v: generic vs avx512: %v", cat.Box.L, err)
				}
			}
		})
	}
}

func TestBlockedMatchesPerPrimaryBitwise(t *testing.T) {
	// The unit's one shared block-granular finder query must be invisible to
	// the numerics: against the per-primary reference gather (one
	// QueryRadiusImages call per primary, same unit order, same assembly and
	// reduction downstream) every Aniso channel must be bitwise identical,
	// not merely close, across all three LOS modes, IsotropicOnly, SelfCount,
	// small units and sparse touch lists.
	cases := []struct {
		name   string
		mutate func(*Config)
		units  func(*engine)
	}{
		{"plane-parallel", func(*Config) {}, nil},
		{"plane-parallel-no-selfcount", func(c *Config) { c.SelfCount = false }, nil},
		{"plane-parallel-isotropic", func(c *Config) { c.IsotropicOnly = true }, nil},
		{"los-radial", func(c *Config) {
			c.LOS = LOSRadial
			c.Observer = geom.Vec3{X: -300, Y: -250, Z: -400}
		}, nil},
		{"los-radial-isotropic", func(c *Config) {
			c.LOS = LOSRadial
			c.IsotropicOnly = true
		}, nil},
		{"los-midpoint", func(c *Config) {
			c.LOS = LOSMidpoint
			c.Observer = geom.Vec3{X: -300, Y: -250, Z: -400}
		}, nil},
		{"los-midpoint-no-selfcount", func(c *Config) {
			c.LOS = LOSMidpoint
			c.Observer = geom.Vec3{X: -300, Y: -250, Z: -400}
			c.SelfCount = false
		}, nil},
		{"los-midpoint-isotropic", func(c *Config) {
			c.LOS = LOSMidpoint
			c.Observer = geom.Vec3{X: -300, Y: -250, Z: -400}
			c.IsotropicOnly = true
		}, nil},
		{"los-midpoint-small-blocks", func(c *Config) {
			c.LOS = LOSMidpoint
			c.Observer = geom.Vec3{X: -300, Y: -250, Z: -400}
		}, smallUnits(3, 9)},
		{"sparse-bins", func(c *Config) {
			c.RMin = 25
			c.NBins = 12
		}, nil},
		{"small-blocks", func(*Config) {}, smallUnits(3, 9)},
		// Eight workers claiming units from the shared counter, against the
		// three of every other row.
		{"dynamic-sched", func(c *Config) { c.Workers = 8 }, nil},
	}
	cat := catalog.Clustered(350, 180, catalog.DefaultClusterParams(), 71)
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := propConfig()
			tc.mutate(&cfg)
			blocked, err := computeEngine(ctx, cat, cfg, tc.units)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := computeEngine(ctx, cat, cfg, func(e *engine) {
				if tc.units != nil {
					tc.units(e)
				}
				e.finder = perCentre{e.finder}
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := sameBits(blocked, ref); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// perCentre is the reference gather: it answers a unit's block query with
// one QueryRadiusImages call per centre, at the radius it is given.
type perCentre struct{ NeighborFinder }

func (f perCentre) QueryRadiusImagesBlock(centers []geom.Vec3, r float64, images []geom.Vec3, blk *nbr.Block) {
	blk.Reset(len(centers))
	for _, c := range centers {
		blk.IDs = f.QueryRadiusImages(c, r, images, blk.IDs)
		blk.Seal()
	}
}

// computeEngine is ComputeContext on an engine that adjust, when non-nil,
// changes after its finder is built and before its units are cut: the tests'
// way to run the per-centre reference gather or units smaller than the
// engine's.
func computeEngine(ctx context.Context, cat *catalog.Catalog, cfg Config, adjust func(*engine)) (*Result, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	bins, err := hist.NewBinning(cfg.RMin, cfg.RMax, cfg.NBins)
	if err != nil {
		return nil, err
	}
	e := newEngine(ctx, cat, nil, cfg, bins)
	if err := e.buildFinder(); err != nil {
		return nil, err
	}
	if adjust != nil {
		adjust(e)
	}
	e.buildBlocks()
	return e.run()
}

// smallUnits cuts Morton cells of side cell (0 keeps RMax/2) at unitCap
// primaries, so units close before unitCap/2: many units per run.
func smallUnits(unitCap int32, cell float64) func(*engine) {
	return func(e *engine) {
		e.unitCap = unitCap
		if cell > 0 {
			e.cell = cell
		}
	}
}

func TestMonopoleChannelIsRealPositive(t *testing.T) {
	// zeta^0_{00}(b, b) is a sum over primaries of w_p |a_00(b)|^2 minus a
	// positive self term; for unit weights with self-count it equals the
	// (non-negative) distinct-triplet count.
	cat := catalog.Uniform(300, 160, 59)
	res, err := Compute(cat, propConfig())
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < res.Bins.N; b++ {
		v := res.ZetaM(0, 0, 0, b, b)
		if math.Abs(imag(v)) > 1e-9*(1+math.Abs(real(v))) {
			t.Errorf("zeta^0_00(%d,%d) has imaginary part %v", b, b, imag(v))
		}
		if real(v) < -1e-9 {
			t.Errorf("zeta^0_00(%d,%d) = %v negative for unit weights", b, b, real(v))
		}
	}
}

func TestZeroWeightGalaxiesAreInert(t *testing.T) {
	// Galaxies with zero weight contribute nothing to any channel (they do
	// enter pair counts as primaries, so compare channels only).
	cat := catalog.Uniform(200, 160, 61)
	cfg := propConfig()
	base, err := Compute(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	padded := &catalog.Catalog{Box: cat.Box}
	padded.Galaxies = append(padded.Galaxies, cat.Galaxies...)
	extra := catalog.Uniform(100, 160, 62)
	for _, g := range extra.Galaxies {
		padded.Galaxies = append(padded.Galaxies, catalog.Galaxy{Pos: g.Pos, Weight: 0})
	}
	got, err := Compute(padded, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.MaxAbsDiff(base); d > 1e-9*base.MaxAbs() {
		t.Errorf("zero-weight galaxies changed channels by %v", d)
	}
}

func TestMirrorSymmetryFlipsOddChannels(t *testing.T) {
	// Reflecting the catalog through the x-y plane (z -> L - z, a parity
	// flip of the line-of-sight axis) conjugates... specifically a_lm picks
	// up (-1)^{l+m} under z -> -z, so zeta^m_{l1 l2} maps to
	// (-1)^{l1+l2} zeta^m_{l1 l2}. Even-sum channels are invariant; odd-sum
	// channels flip sign.
	cat := catalog.Clustered(300, 160, catalog.DefaultClusterParams(), 63)
	cfg := propConfig()
	base, err := Compute(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	flipped := &catalog.Catalog{Box: cat.Box, Galaxies: make([]catalog.Galaxy, cat.Len())}
	for i, g := range cat.Galaxies {
		p := g.Pos
		p.Z = cat.Box.L - p.Z
		flipped.Galaxies[i] = catalog.Galaxy{Pos: cat.Box.Wrap(p), Weight: g.Weight}
	}
	got, err := Compute(flipped, cfg)
	if err != nil {
		t.Fatal(err)
	}
	scale := base.MaxAbs()
	for ci, c := range base.Combos.Combos {
		sign := complex(1, 0)
		if (c.L1+c.L2)%2 == 1 {
			sign = -1
		}
		for b1 := 0; b1 < cfg.NBins; b1++ {
			for b2 := 0; b2 < cfg.NBins; b2++ {
				idx := (ci*cfg.NBins+b1)*cfg.NBins + b2
				want := sign * base.Aniso[idx]
				if cmplx.Abs(got.Aniso[idx]-want) > 1e-8*scale {
					t.Fatalf("combo %+v (%d,%d): %v, want %v under z-mirror",
						c, b1, b2, got.Aniso[idx], want)
				}
			}
		}
	}
}
