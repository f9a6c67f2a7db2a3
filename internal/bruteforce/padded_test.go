package bruteforce

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
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
			requireEngineMatchesAniso(t, cat, cfg)
		}
	}
}

// unitCatalog engineers the commit-unit shapes of the blocked traversal in
// an open box for RMax 20 / 5 bins. The engine sorts primaries into Morton
// cells of side RMax/2 = 10, caps a cell at 64 primaries and closes a unit
// before it passes 32. In Morton order the cells hold 2, 1, 1 | 29, 1 | 3,
// 1, 1 | 64 | 8 primaries:
//
//   - unit 0 spans three cells: a close pair (an intra-cell folded pair), a
//     galaxy farther than RMax from everything (an all-zero slab row in the
//     middle of the unit), and a one-primary cell whose neighbours all live
//     in later units;
//   - unit 1 starts at a non-zero slab offset with a 29-primary cell and
//     ends on a one-primary cell;
//   - unit 2 spans three cells again;
//   - a 72-galaxy clump in one grid cell is cut into cells of 64 and 8 that
//     each stand alone.
//
// Every slab row past a unit's first cell is written at the cell's offset
// into the unit, so dropping that offset makes the cells of a unit overwrite
// each other and every comparison below fail.
func unitCatalog() *catalog.Catalog {
	rng := rand.New(rand.NewSource(7))
	in := func(lo geom.Vec3) geom.Vec3 { // uniform in [lo, lo+8)^3
		return lo.Add(geom.Vec3{X: 8 * rng.Float64(), Y: 8 * rng.Float64(), Z: 8 * rng.Float64()})
	}
	pos := []geom.Vec3{
		{X: 0, Y: 0, Z: 0}, {X: 2, Y: 3, Z: 1}, // cell (0,0,0)
		{X: 35, Y: 35, Z: 35}, // cell (3,3,3): no neighbour
		{X: 48, Y: 3, Z: 3},   // cell (4,0,0)
	}
	for i := 0; i < 29; i++ { // cell (5,0,0)
		pos = append(pos, in(geom.Vec3{X: 51, Y: 1, Z: 1}))
	}
	pos = append(pos,
		geom.Vec3{X: 47, Y: 14, Z: 4}, // cell (4,1,0)
		geom.Vec3{X: 52, Y: 15, Z: 5}, // cell (5,1,0), three galaxies
		geom.Vec3{X: 55, Y: 12, Z: 7},
		geom.Vec3{X: 57, Y: 17, Z: 3},
		geom.Vec3{X: 44, Y: 4, Z: 15}, // cell (4,0,1)
		geom.Vec3{X: 56, Y: 6, Z: 14}, // cell (5,0,1)
	)
	for i := 0; i < 72; i++ { // cell (6,6,0)
		pos = append(pos, in(geom.Vec3{X: 61, Y: 61, Z: 1}))
	}
	cat := &catalog.Catalog{}
	for i, p := range pos {
		w := 1.0
		if i%4 == 0 {
			w = -0.6
		} else if i%3 == 0 {
			w = 1.7
		}
		cat.Galaxies = append(cat.Galaxies, catalog.Galaxy{Pos: p, Weight: w})
	}
	return cat
}

// TestEngineMatchesBruteForceUnitSpanningCells runs the engine over
// unitCatalog in every ladder form — anisotropic and IsotropicOnly,
// SelfCount on and off, plane-parallel, radial and midpoint line of sight
// (the frames that rotate nothing, once per primary and once per pair) —
// against direct triplet counting, and under the per-pair frame once more in
// a periodic box.
func TestEngineMatchesBruteForceUnitSpanningCells(t *testing.T) {
	base := testConfig()
	base.RMax = 20
	base.Observer = geom.Vec3{X: -500, Y: -300, Z: -1000}
	requireUnitShapes(t, unitCatalog(), base)

	for _, los := range []core.LOSMode{core.LOSPlaneParallel, core.LOSRadial, core.LOSMidpoint} {
		for _, selfCount := range []bool{true, false} {
			cfg := base
			cfg.LOS = los
			cfg.SelfCount = selfCount
			requireEngineMatchesAniso(t, unitCatalog(), cfg)
		}
	}

	// The same units under periodic boundaries and the per-pair frame: a box
	// of side 76 keeps every cell where it was, and brings the clump within
	// RMax of the origin cell through the wrap only — pairs whose separation
	// takes the minimal image while their midpoint frame does not.
	wrapped := unitCatalog()
	wrapped.Box = geom.Periodic{L: 76}
	requireUnitShapes(t, wrapped, base)
	cfg := base
	cfg.LOS = core.LOSMidpoint
	open, err := core.Compute(unitCatalog(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	periodic, err := core.Compute(wrapped, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if periodic.Pairs <= open.Pairs {
		t.Fatalf("the periodic box adds no pair (%d vs %d open): the wrap is not exercised", periodic.Pairs, open.Pairs)
	}
	for _, selfCount := range []bool{true, false} {
		cfg.SelfCount = selfCount
		requireEngineMatchesAniso(t, wrapped, cfg)
	}
}

// TestEngineMatchesBruteForceWidenedSlotStride: at nb 8 and 16 a unit of 64
// primaries spaces its a_lm slab slots a multiple of 4 KB apart, so the
// engine widens the spacing by a cache line (core's slotStride).
// unitCatalog's 64-primary cell stands alone as such a unit beside units
// whose spacing stays packed; both ladder forms must match direct triplet
// counting at both bin counts.
func TestEngineMatchesBruteForceWidenedSlotStride(t *testing.T) {
	for _, nb := range []int{8, 16} {
		cfg := testConfig()
		cfg.RMax, cfg.NBins = 20, nb
		requireEngineMatchesAniso(t, unitCatalog(), cfg)
	}
}

// TestEngineMatchesBruteForceMultiChunkTile: the kernel consumes a (primary,
// bin) tile in chunks of 128 pairs, so a tile longer than that adds into the
// same lane accumulators across a chunk boundary. A centre galaxy with 136
// neighbours on a jittered shell of radius 12.5-15.5 — all in bin 3 of RMax
// 20 / 5 bins — holds such a tile; the engine must match direct triplet
// counting on it, periodic under the plane-parallel frame and open under the
// radial one.
func TestEngineMatchesBruteForceMultiChunkTile(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := geom.Vec3{X: 60, Y: 60, Z: 60}
	cat := &catalog.Catalog{Box: geom.Periodic{L: 120}, Galaxies: []catalog.Galaxy{{Pos: c, Weight: 1}}}
	const n = 136
	for i := 0; i < n; i++ { // a Fibonacci sphere
		z := 1 - (2*float64(i)+1)/n
		phi := 2.399963 * float64(i)
		rho := math.Sqrt(1 - z*z)
		u := geom.Vec3{X: rho * math.Cos(phi), Y: rho * math.Sin(phi), Z: z}
		w := 1.0
		if i%4 == 0 {
			w = -0.6
		}
		cat.Galaxies = append(cat.Galaxies, catalog.Galaxy{Pos: c.Add(u.Scale(12.5 + 3*rng.Float64())), Weight: w})
	}
	cfg := testConfig()
	cfg.RMax = 20
	bins, err := hist.NewBinning(cfg.RMin, cfg.RMax, cfg.NBins)
	if err != nil {
		t.Fatal(err)
	}
	longest := 0
	for i, p := range cat.Galaxies {
		tile := make([]int, bins.N)
		for j, q := range cat.Galaxies {
			if b := bins.Index(cat.Box.Distance(p.Pos, q.Pos)); j != i && b >= 0 {
				tile[b]++
				longest = max(longest, tile[b])
			}
		}
	}
	if longest <= 128 {
		t.Fatalf("the longest (primary, bin) tile holds %d pairs: no tile spans two kernel chunks", longest)
	}
	requireEngineMatchesAniso(t, cat, cfg)
	open := &catalog.Catalog{Galaxies: cat.Galaxies}
	cfg.LOS = core.LOSRadial
	cfg.Observer = geom.Vec3{X: -500, Y: -300, Z: -1000}
	requireEngineMatchesAniso(t, open, cfg)
}

// requireEngineMatchesAniso compares core.Compute, anisotropic and
// IsotropicOnly, with direct triplet counting under cfg at 1e-9 of the
// largest channel.
func requireEngineMatchesAniso(t *testing.T, cat *catalog.Catalog, cfg core.Config) {
	t.Helper()
	want, err := aniso(cat, cfg, !cfg.SelfCount)
	if err != nil {
		t.Fatal(err)
	}
	scale := want.MaxAbs()
	for _, isoOnly := range []bool{false, true} {
		cfg.IsotropicOnly = isoOnly
		label := fmt.Sprintf("%v selfcount=%v iso=%v", cfg.LOS, cfg.SelfCount, isoOnly)
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

// requireUnitShapes fails when unitCatalog no longer produces the unit
// shapes the test exists for. It restates buildBlocks' contract
// independently: primaries sort by the Morton code of their grid cell of
// side RMax/2 (anchored at the coordinate minimum in an open box), a cell is
// a run of one code capped at the engine's 64 primaries, and a unit is a run
// of cells closed before it passes 32.
func requireUnitShapes(t *testing.T, cat *catalog.Catalog, cfg core.Config) {
	t.Helper()
	const unitCap = 64
	cell := cfg.RMax / 2
	org := cat.Galaxies[0].Pos
	for _, g := range cat.Galaxies {
		org = geom.Vec3{X: math.Min(org.X, g.Pos.X), Y: math.Min(org.Y, g.Pos.Y), Z: math.Min(org.Z, g.Pos.Z)}
	}
	codes := make([]uint64, cat.Len())
	for i, g := range cat.Galaxies {
		d := g.Pos.Sub(org).Scale(1 / cell)
		for bit := 0; bit < 21; bit++ {
			for ax, v := range [3]uint64{uint64(d.X), uint64(d.Y), uint64(d.Z)} {
				codes[i] |= (v >> bit & 1) << (3*bit + ax)
			}
		}
	}
	sorted := append([]uint64(nil), codes...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	var units [][]int // primaries per cell, per unit
	np := 0
	for i := 0; i < len(sorted); {
		k := 1
		for i+k < len(sorted) && sorted[i+k] == sorted[i] && k < unitCap {
			k++
		}
		if len(units) == 0 || np+k > unitCap/2 {
			units = append(units, nil)
			np = 0
		}
		units[len(units)-1] = append(units[len(units)-1], k)
		np += k
		i += k
	}
	want := [][]int{{2, 1, 1}, {29, 1}, {3, 1, 1}, {64}, {8}}
	if !reflect.DeepEqual(units, want) {
		t.Fatalf("catalog lost its unit shapes: cells per unit %v, want %v", units, want)
	}
	const lonely = 2 // the middle cell of unit 0
	for j, q := range cat.Galaxies {
		if d := cat.Box.Distance(cat.Galaxies[lonely].Pos, q.Pos); j != lonely && d < cfg.RMax {
			t.Fatalf("galaxy %d has a neighbour at %v: unit 0 lost its all-zero slab row", lonely, d)
		}
	}
}
