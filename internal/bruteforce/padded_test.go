package bruteforce

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"galactos/internal/catalog"
	"galactos/internal/core"
	"galactos/internal/geom"
	"galactos/internal/hist"
)

// paddedCatalog engineers every row shape the engine's zero-padded a_lm
// slabs can take, in a 120 box for RMax 20 / 5 bins (width 4, block cells of
// side 10):
//
//   - a clump filling two adjacent cells: blocks of K ~ 25 mixing primaries
//     that touch every bin with primaries that miss the innermost or the
//     outermost one;
//   - a jittered octahedron of radius 13 around a centre: seven galaxies each
//     alone in its cell (K = 1) that touch only bin 3 (centre) or bins 3-4
//     (vertices), so every inner bin is padding;
//   - a tight triplet sharing one cell that touches bin 0 only;
//   - two galaxies farther than RMax from everything: K = 1 blocks whose slab
//     row is all zeros.
//
// Weights mix signs and magnitudes so a mis-scaled or misplaced row shows.
func paddedCatalog() *catalog.Catalog {
	rng := rand.New(rand.NewSource(5))
	var pos []geom.Vec3
	for i := 0; i < 50; i++ {
		pos = append(pos, geom.Vec3{X: 10 + 10*rng.Float64(), Y: 10 + 10*rng.Float64(), Z: 10 + 20*rng.Float64()})
	}
	jitter := func() float64 { return rng.Float64() - 0.5 }
	c := geom.Vec3{X: 60, Y: 60, Z: 60}
	pos = append(pos, c)
	for _, d := range []geom.Vec3{{X: 13}, {X: -13}, {Y: 13}, {Y: -13}, {Z: 13}, {Z: -13}} {
		pos = append(pos, c.Add(d).Add(geom.Vec3{X: jitter(), Y: jitter(), Z: jitter()}))
	}
	pos = append(pos,
		geom.Vec3{X: 95, Y: 15, Z: 55}, geom.Vec3{X: 96, Y: 16, Z: 56}, geom.Vec3{X: 97, Y: 15.5, Z: 54},
		geom.Vec3{X: 100, Y: 100, Z: 30}, geom.Vec3{X: 30, Y: 100, Z: 100})
	cat := &catalog.Catalog{Box: geom.Periodic{L: 120}}
	for i, p := range pos {
		w := 1.0
		if i%5 == 0 {
			w = -0.7
		} else if i%3 == 0 {
			w = 1.5
		}
		cat.Galaxies = append(cat.Galaxies, catalog.Galaxy{Pos: p, Weight: w})
	}
	return cat
}

// TestEngineMatchesBruteForcePaddedShapes runs the engine over
// paddedCatalog in every ladder form — anisotropic and IsotropicOnly,
// SelfCount on and off, plane-parallel and radial line of sight — against
// direct triplet counting. Stage 3 is one dense ZetaBatch / ZetaBatchIso
// call per channel, so a primary's untouched bins, a neighbourless primary
// and a one-primary block are all the same code with zeros in the slab;
// this is the test that would see a stale (uncleared) slab row.
func TestEngineMatchesBruteForcePaddedShapes(t *testing.T) {
	base := testConfig()
	base.RMax = 20
	requirePaddedShapes(t, paddedCatalog(), base)

	for _, los := range []core.LOSMode{core.LOSPlaneParallel, core.LOSRadial} {
		for _, selfCount := range []bool{true, false} {
			cat := paddedCatalog()
			cfg := base
			cfg.LOS = los
			cfg.SelfCount = selfCount
			if los == core.LOSRadial {
				cat.Box = geom.Periodic{}
				cfg.Observer = geom.Vec3{X: -500, Y: -300, Z: -1000}
			}
			want, err := aniso(cat, cfg, !selfCount)
			if err != nil {
				t.Fatal(err)
			}
			scale := want.MaxAbs()
			for _, isoOnly := range []bool{false, true} {
				cfg.IsotropicOnly = isoOnly
				label := fmt.Sprintf("%v selfcount=%v iso=%v", los, selfCount, isoOnly)
				got, err := core.Compute(cat, cfg)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if got.Pairs != want.Pairs || got.NPrimaries != want.NPrimaries {
					t.Fatalf("%s: %d pairs over %d primaries, want %d over %d",
						label, got.Pairs, got.NPrimaries, want.Pairs, want.NPrimaries)
				}
				nb2 := cfg.NBins * cfg.NBins
				for ci, c := range want.Combos.Combos {
					if isoOnly && c.L1 != c.L2 {
						continue
					}
					for i := ci * nb2; i < (ci+1)*nb2; i++ {
						g, w := got.Aniso[i], want.Aniso[i]
						if isoOnly { // the isotropic ladder keeps real parts only
							g, w = complex(real(g), 0), complex(real(w), 0)
						}
						if d := math.Hypot(real(g-w), imag(g-w)); d > 1e-9*scale {
							t.Fatalf("%s: zeta^%d_{%d %d}[%d] = %v, want %v (scale %v)",
								label, c.M, c.L1, c.L2, i-ci*nb2, g, w, scale)
						}
					}
				}
			}
		}
	}
}

// requirePaddedShapes fails when the catalog no longer contains the row
// shapes the test exists for: primaries touching no bin, some bins, and
// every bin.
func requirePaddedShapes(t *testing.T, cat *catalog.Catalog, cfg core.Config) {
	t.Helper()
	bins, err := hist.NewBinning(cfg.RMin, cfg.RMax, cfg.NBins)
	if err != nil {
		t.Fatal(err)
	}
	var none, some, all int
	for i, p := range cat.Galaxies {
		touched := make([]bool, bins.N)
		nt := 0
		for j, q := range cat.Galaxies {
			if b := bins.Index(cat.Box.Distance(p.Pos, q.Pos)); j != i && b >= 0 && !touched[b] {
				touched[b] = true
				nt++
			}
		}
		switch nt {
		case 0:
			none++
		case bins.N:
			all++
		default:
			some++
		}
	}
	if none < 2 || some < 10 || all < 10 {
		t.Fatalf("catalog lost its padded shapes: %d primaries touch no bin, %d some, %d all", none, some, all)
	}
}
