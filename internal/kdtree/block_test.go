package kdtree_test

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"galactos/internal/catalog"
	"galactos/internal/geom"
	"galactos/internal/grid"
	"galactos/internal/kdtree"
	"galactos/internal/lanes"
)

// finder is the engine's NeighborFinder contract.
type finder interface {
	QueryRadiusImages(center geom.Vec3, r float64, images []geom.Vec3, out []int32) []int32
	QueryRadiusImagesBlock(centers []geom.Vec3, r float64, images []geom.Vec3, blk *kdtree.Block)
}

const (
	boxL   = 100.0
	radius = 12.0 // r^2 = 144 and the boundary offsets below are exact in float32
)

// TestBlockQueryMatchesPerCenter pins the block query directly: for every
// finder, QueryRadiusImagesBlock hands each center exactly the ids, in
// exactly the order, of its own QueryRadiusImages call. The table covers
// both tree precisions at leaf sizes below, at and above the 16-lane chunk
// (40 exercises the multi-chunk leaf loop), the grid, both lane bodies where
// the host has them, open and 27-image periodic queries, and blocks of 64,
// 31, 2 and 1 centers answered out of one reused Block in that
// (shrinking) order. The centers span the whole tree and lie outside it; the
// point sets include an empty one, triplicated points, and points at exactly
// d^2 == r^2 (inclusive) with their next-float neighbours just outside. Its
// subtests add the sharded engine's query shape and the leaf-box
// hierarchy's edge shapes.
func TestBlockQueryMatchesPerCenter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	uniform := func(n int, lo, hi float64) []geom.Vec3 {
		ps := make([]geom.Vec3, n)
		for i := range ps {
			ps[i] = geom.Vec3{X: lo + (hi-lo)*rng.Float64(), Y: lo + (hi-lo)*rng.Float64(), Z: lo + (hi-lo)*rng.Float64()}
		}
		return ps
	}
	clumpy := uniform(1500, 0, boxL)
	for i := 0; i < 500; i++ { // a dense clump: leaves far smaller than r
		clumpy = append(clumpy, geom.Vec3{X: 20 + 4*rng.Float64(), Y: 70 + 4*rng.Float64(), Z: 45 + 4*rng.Float64()})
	}
	var dup []geom.Vec3
	for _, p := range uniform(300, 0, boxL) {
		dup = append(dup, p, p, p)
	}
	edge := append(edgePoints(), uniform(200, 0, boxL)...)
	pointSets := []struct {
		name string
		pts  []geom.Vec3
	}{{"empty", nil}, {"clumpy", clumpy}, {"duplicates", dup}, {"edge", edge}}

	// 64 centers: the two boundary centers, a Morton-adjacent handful, the
	// rest across the box and up to 30 beyond it on every side.
	centers := []geom.Vec3{edgeC0, edgeC1}
	centers = append(centers, uniform(14, 18, 26)...)
	centers = append(centers, uniform(48, -30, boxL+30)...)

	imageSets := []struct {
		name   string
		images []geom.Vec3
	}{{"open", []geom.Vec3{{}}}, {"periodic27", geom.Periodic{L: boxL}.Images(radius)}}

	dispatches := []bool{false}
	if lanes.HasAVX512() {
		dispatches = append(dispatches, true)
	}
	defer lanes.Set(lanes.Vector())
	for _, vector := range dispatches {
		lanes.Set(vector)
		for _, ps := range pointSets {
			finders := map[string]finder{
				"grid":        grid.Build(ps.pts, 7, geom.Periodic{}),
				"grid-native": grid.Build(ps.pts, 7, geom.Periodic{L: boxL}),
			}
			for _, leaf := range []int{1, 16, 40} {
				finders[fmt.Sprintf("kd32-leaf%d", leaf)] = kdtree.Build[float32](ps.pts, leaf)
				finders[fmt.Sprintf("kd64-leaf%d", leaf)] = kdtree.Build[float64](ps.pts, leaf)
			}
			for fname, f := range finders {
				for _, is := range imageSets {
					if fname == "grid-native" && len(is.images) > 1 {
						continue // the grid wraps natively; the engine never hands it images
					}
					name := fmt.Sprintf("vector=%v/%s/%s/%s", vector, ps.name, fname, is.name)
					var blk kdtree.Block
					hits := 0
					for _, nc := range []int{64, 31, 2, 1} {
						f.QueryRadiusImagesBlock(centers[:nc], radius, is.images, &blk)
						if len(blk.Offs) != nc+1 {
							t.Fatalf("%s nc=%d: %d offsets", name, nc, len(blk.Offs))
						}
						for c := 0; c < nc; c++ {
							want := f.QueryRadiusImages(centers[c], radius, is.images, nil)
							if got := blk.List(c); !slices.Equal(got, want) {
								t.Fatalf("%s nc=%d center %d: block list %v, per-center %v", name, nc, c, got, want)
							}
							hits += len(want)
						}
					}
					if ps.name != "empty" && hits == 0 {
						t.Fatalf("%s: no neighbours at all; the table lost its shape", name)
					}
				}
			}
		}
	}
	t.Run("stream_sharded", blockStreamShardedShape)
	t.Run("tree-shapes", blockTreeShapes)
}

// blockStreamShardedShape runs the block query at the shape the sharded
// engine issues it at: a clustered catalog at the Outer Rim density
// (stream_sharded's, 24,000 galaxies), periodic, RMax 5, centers in
// 31-center Morton units. Its units reach more than 16 leaf groups, and
// the units at the box faces more than one image run; every center's list
// must equal its own per-center query under both lane bodies and both
// precisions.
func blockStreamShardedShape(t *testing.T) {
	const n, rmax = 24000, 5.0
	cat := catalog.Clustered(n, catalog.BoxForDensity(n), catalog.DefaultClusterParams(), 1)
	units := mortonUnits(cat.Positions(), rmax/2, 31)
	images := cat.Box.Images(rmax)
	eachLaneBody(t, func(vector bool) {
		for _, f := range []finder{kdtree.Build[float32](cat.Positions(), 0), kdtree.Build[float64](cat.Positions(), 0)} {
			name := fmt.Sprintf("vector=%v/%T", vector, f)
			var blk kdtree.Block
			maxGroups, maxRuns := 0, 0
			for _, u := range units {
				requireBlockMatches(t, name, f, u, rmax, images, &blk)
				g, r := kdtree.Reached(&blk)
				maxGroups, maxRuns = max(maxGroups, g), max(maxRuns, r)
			}
			if maxGroups <= 16 || maxRuns <= 1 {
				t.Fatalf("%s: units reach at most %d leaf groups and %d image runs; the shape wants more than 16 and 1", name, maxGroups, maxRuns)
			}
		}
	})
}

// blockTreeShapes covers the hierarchy's edge shapes under both
// lane bodies and both precisions: one leaf (a single level-0 group is the
// top), a leaf count that is not a multiple of 16 (the last group of every
// level part-filled), leaf size 40 (up to three chunks a leaf), and a
// radius whose float32 square overflows to +Inf, which every box passes,
// the never-hit lanes of part-filled groups included.
func blockTreeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	cube := func(n int, side float64) []geom.Vec3 {
		ps := make([]geom.Vec3, n)
		for i := range ps {
			ps[i] = geom.Vec3{X: side * rng.Float64(), Y: side * rng.Float64(), Z: side * rng.Float64()}
		}
		return ps
	}
	cases := []struct {
		name   string
		pts    []geom.Vec3
		leaf   int
		r      float64
		images []geom.Vec3
		leaves func(int) bool
	}{
		{"one-leaf", cube(11, 10), 16, 4, geom.Periodic{L: 10}.Images(4), func(n int) bool { return n == 1 }},
		{"leaves-not-x16", cube(520, 60), 16, 9, geom.Periodic{L: 60}.Images(9), func(n int) bool { return n > 16 && n%16 != 0 }},
		{"leaf40", cube(3000, 60), 40, 9, geom.Periodic{L: 60}.Images(9), func(n int) bool { return n > 16 }},
		{"r2-overflows", cube(520, 60), 16, 1e30, []geom.Vec3{{}}, func(n int) bool { return n > 16 && n%16 != 0 }},
	}
	for _, tc := range cases {
		centers := append(slices.Clone(tc.pts), cube(40, 80)...)
		units := mortonUnits(centers, 5, 31)
		eachLaneBody(t, func(vector bool) {
			t32, t64 := kdtree.Build[float32](tc.pts, tc.leaf), kdtree.Build[float64](tc.pts, tc.leaf)
			if !tc.leaves(t32.Leaves()) || t64.Leaves() != t32.Leaves() {
				t.Fatalf("%s: %d leaves, not the shape the case is for", tc.name, t32.Leaves())
			}
			for _, f := range []finder{t32, t64} {
				var blk kdtree.Block
				for _, u := range units {
					requireBlockMatches(t, fmt.Sprintf("%s/vector=%v/%T", tc.name, vector, f), f, u, tc.r, tc.images, &blk)
				}
			}
		})
	}
}

// eachLaneBody runs f under the portable lane bodies and, where the host
// has them, the AVX-512 ones (a tree binds the dispatch in effect at
// Build), restoring the process's choice.
func eachLaneBody(t *testing.T, f func(vector bool)) {
	defer lanes.Set(lanes.Vector())
	for _, vector := range []bool{false, true} {
		if lanes.Set(vector) != vector {
			t.Logf("no AVX-512 on this host: portable body only")
			continue
		}
		f(vector)
	}
}

// requireBlockMatches answers centers as one block and fails unless each
// center's list equals its own per-center query.
func requireBlockMatches(t *testing.T, name string, f finder, centers []geom.Vec3, r float64, images []geom.Vec3, blk *kdtree.Block) {
	t.Helper()
	f.QueryRadiusImagesBlock(centers, r, images, blk)
	if len(blk.Offs) != len(centers)+1 {
		t.Fatalf("%s: %d offsets for %d centers", name, len(blk.Offs), len(centers))
	}
	for c, center := range centers {
		if got, want := blk.List(c), f.QueryRadiusImages(center, r, images, nil); !slices.Equal(got, want) {
			t.Fatalf("%s: center %v: block list %v, per-center %v", name, center, got, want)
		}
	}
}

var (
	edgeC0 = geom.Vec3{X: 50, Y: 50, Z: 50}
	edgeC1 = geom.Vec3{X: 90, Y: 50, Z: 50}
)

// edgePoints returns six points at exactly distance r in float32 — five from
// edgeC0, one from edgeC1 through its x = -L image — at the even indices,
// each followed by a partner a few float32 steps farther out along x.
func edgePoints() []geom.Vec3 {
	var pts []geom.Vec3
	out := func(p geom.Vec3, steps uint32) geom.Vec3 {
		p.X = float64(math.Float32frombits(math.Float32bits(float32(p.X)) + steps))
		return p
	}
	for _, d := range []geom.Vec3{{X: 12}, {X: 4, Y: -8, Z: 8}, {X: 8, Y: 8, Z: 4}, {X: 8, Y: -4, Z: -8}, {X: 4, Y: 8, Z: -8}} {
		p := edgeC0.Add(d)
		pts = append(pts, p, out(p, 1))
	}
	p := geom.Vec3{X: 2, Y: 50, Z: 50}
	return append(pts, p, out(p, 4))
}

// TestBoundaryPointsAreInclusive keeps the edge set honest: at float32
// precision the at-radius points are admitted (the test is d^2 <= r^2) and
// none of their partners is.
func TestBoundaryPointsAreInclusive(t *testing.T) {
	tree := kdtree.Build[float32](edgePoints(), 0)
	var blk kdtree.Block
	tree.QueryRadiusImagesBlock([]geom.Vec3{edgeC0, edgeC1}, radius, geom.Periodic{L: boxL}.Images(radius), &blk)
	got := slices.Clone(blk.List(0))
	slices.Sort(got)
	if want := []int32{0, 2, 4, 6, 8}; !slices.Equal(got, want) {
		t.Fatalf("edgeC0 admits %v, want the at-radius points %v", got, want)
	}
	if got, want := blk.List(1), []int32{10}; !slices.Equal(got, want) {
		t.Fatalf("edgeC1 admits %v, want %v through the -L image", got, want)
	}
}

// mortonUnits cuts pts, sorted along the Morton curve over cells of side
// cell, into runs of k centres: the commit units the engine queries as one
// block.
func mortonUnits(pts []geom.Vec3, cell float64, k int) [][]geom.Vec3 {
	key := func(p geom.Vec3) (m uint64) {
		for ax, v := range [3]uint64{uint64(p.X / cell), uint64(p.Y / cell), uint64(p.Z / cell)} {
			for bit := 0; bit < 21; bit++ {
				m |= (v >> bit & 1) << (3*bit + ax)
			}
		}
		return m
	}
	sorted := slices.Clone(pts)
	slices.SortStableFunc(sorted, func(p, q geom.Vec3) int { return cmp.Compare(key(p), key(q)) })
	var units [][]geom.Vec3
	for len(sorted) > 0 {
		n := min(k, len(sorted))
		units, sorted = append(units, sorted[:n]), sorted[n:]
	}
	return units
}

// BenchmarkBlockQuery is the gather layer in process: one
// QueryRadiusImagesBlock call per 31-centre unit of a Morton-ordered
// clustered catalog over all 27 periodic images, on the lane bodies in
// effect, reporting ns and candidates per centre. sparse is stream_sharded's
// shape (24,000 galaxies at the Outer Rim density, RMax 5, ~39 candidates a
// centre); dense is 2,600 galaxies at RMax 15 (~1,000).
func BenchmarkBlockQuery(b *testing.B) {
	for _, bc := range []struct {
		name string
		n    int
		rmax float64
	}{{"sparse", 24000, 5}, {"dense", 2600, 15}} {
		b.Run(bc.name, func(b *testing.B) {
			cat := catalog.Clustered(bc.n, catalog.BoxForDensity(bc.n), catalog.DefaultClusterParams(), 1)
			units := mortonUnits(cat.Positions(), bc.rmax/2, 31)
			images := cat.Box.Images(bc.rmax)
			tree := kdtree.Build[float32](cat.Positions(), 0)
			var blk kdtree.Block
			centres, candidates := 0, 0
			for b.Loop() {
				for _, u := range units {
					tree.QueryRadiusImagesBlock(u, bc.rmax, images, &blk)
					centres += len(u)
					candidates += len(blk.IDs)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(centres), "ns/centre")
			b.ReportMetric(float64(candidates)/float64(centres), "candidates/centre")
		})
	}
}
