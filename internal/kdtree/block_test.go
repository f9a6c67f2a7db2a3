package kdtree_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

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
// d^2 == r^2 (inclusive) with their next-float neighbours just outside.
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
