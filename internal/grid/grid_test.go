package grid

import (
	"math/rand"
	"sort"
	"testing"

	"galactos/internal/geom"
)

func randPoints(rng *rand.Rand, n int, l float64) []geom.Vec3 {
	pts := make([]geom.Vec3, n)
	for i := range pts {
		pts[i] = geom.Vec3{X: rng.Float64() * l, Y: rng.Float64() * l, Z: rng.Float64() * l}
	}
	return pts
}

func linearScan(pts []geom.Vec3, pb geom.Periodic, c geom.Vec3, r float64) []int32 {
	var out []int32
	for i, p := range pts {
		if pb.Separation(c, p).Norm() <= r {
			out = append(out, int32(i))
		}
	}
	return out
}

func sortIDs(s []int32) { sort.Slice(s, func(i, j int) bool { return s[i] < s[j] }) }

func sameIDs(t *testing.T, got, want []int32, ctx string) {
	t.Helper()
	sortIDs(got)
	sortIDs(want)
	if len(got) != len(want) {
		t.Fatalf("%s: got %d ids, want %d", ctx, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: id mismatch at %d: %d vs %d", ctx, i, got[i], want[i])
		}
	}
}

func TestOpenBoundariesMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := randPoints(rng, 2000, 100)
	g := Build(pts, 10, geom.Periodic{})
	for trial := 0; trial < 50; trial++ {
		c := geom.Vec3{X: rng.Float64() * 100, Y: rng.Float64() * 100, Z: rng.Float64() * 100}
		r := rng.Float64() * 25
		got := g.QueryRadius(c, r, nil)
		want := linearScan(pts, geom.Periodic{}, c, r)
		sameIDs(t, got, want, "open")
	}
}

func TestPeriodicMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pb := geom.Periodic{L: 100}
	pts := randPoints(rng, 2000, 100)
	g := Build(pts, 10, pb)
	for trial := 0; trial < 50; trial++ {
		c := pts[rng.Intn(len(pts))]
		r := rng.Float64() * 40 // up to 0.4 L: wrapping definitely exercised
		got := g.QueryRadius(c, r, nil)
		want := linearScan(pts, pb, c, r)
		sameIDs(t, got, want, "periodic")
	}
}

func TestQueryRadiusImagesMatchesScan(t *testing.T) {
	// With the engine's single zero offset the fused query is one native
	// periodic sweep; with explicit offsets it must union the per-image
	// neighborhoods.
	rng := rand.New(rand.NewSource(9))
	pb := geom.Periodic{L: 100}
	pts := randPoints(rng, 1500, 100)
	g := Build(pts, 10, pb)
	for trial := 0; trial < 30; trial++ {
		c := pts[rng.Intn(len(pts))]
		r := rng.Float64() * 30
		got := g.QueryRadiusImages(c, r, []geom.Vec3{{}}, nil)
		want := linearScan(pts, pb, c, r)
		sameIDs(t, got, want, "fused-zero-offset")
	}

	open := Build(pts, 10, geom.Periodic{})
	offs := []geom.Vec3{{}, {X: 100}, {Y: -100}}
	for trial := 0; trial < 10; trial++ {
		c := pts[rng.Intn(len(pts))]
		r := rng.Float64() * 20
		got := open.QueryRadiusImages(c, r, offs, nil)
		var want []int32
		for _, off := range offs {
			want = open.QueryRadius(c.Add(off), r, want)
		}
		sameIDs(t, got, want, "fused-multi-offset")
	}
}

func TestPeriodicCoarseGridNoDuplicates(t *testing.T) {
	// Few cells + large radius: the axis window saturates; every point must
	// appear exactly once.
	rng := rand.New(rand.NewSource(3))
	pb := geom.Periodic{L: 10}
	pts := randPoints(rng, 300, 10)
	g := Build(pts, 4, pb) // 2-3 cells per axis
	got := g.QueryRadius(pts[0], 4.9, nil)
	seen := make(map[int32]int)
	for _, id := range got {
		seen[id]++
		if seen[id] > 1 {
			t.Fatalf("point %d returned twice", id)
		}
	}
	want := linearScan(pts, pb, pts[0], 4.9)
	sameIDs(t, got, want, "coarse periodic")
}

func TestQueryNearBoxCorner(t *testing.T) {
	pb := geom.Periodic{L: 50}
	pts := []geom.Vec3{
		{X: 0.5, Y: 0.5, Z: 0.5},
		{X: 49.5, Y: 49.5, Z: 49.5}, // distance sqrt(3) across the corner
		{X: 25, Y: 25, Z: 25},
	}
	g := Build(pts, 5, pb)
	got := g.QueryRadius(geom.Vec3{X: 0, Y: 0, Z: 0}, 2, nil)
	want := []int32{0, 1}
	sameIDs(t, got, want, "corner wrap")
}

func TestEmptyGrid(t *testing.T) {
	g := Build(nil, 10, geom.Periodic{})
	if g.Len() != 0 || len(g.QueryRadius(geom.Vec3{}, 5, nil)) != 0 {
		t.Error("empty grid misbehaves")
	}
}

func TestSinglePointGrid(t *testing.T) {
	pts := []geom.Vec3{{X: 3, Y: 3, Z: 3}}
	g := Build(pts, 1, geom.Periodic{})
	if got := g.QueryRadius(geom.Vec3{X: 3, Y: 3, Z: 3}, 0.5, nil); len(got) != 1 {
		t.Errorf("got %v", got)
	}
}

func TestAllPointsInOneCell(t *testing.T) {
	pts := make([]geom.Vec3, 100)
	for i := range pts {
		pts[i] = geom.Vec3{X: 1, Y: 1, Z: 1}
	}
	g := Build(pts, 100, geom.Periodic{})
	if got := g.QueryRadius(geom.Vec3{X: 1, Y: 1, Z: 1}, 1, nil); len(got) != 100 {
		t.Errorf("got %d, want 100", len(got))
	}
}

func TestCellCountPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randPoints(rng, 100, 40)
	g := Build(pts, 10, geom.Periodic{L: 40})
	if cells := g.nx * g.ny * g.nz; cells < 8 {
		t.Errorf("%d cells, want >= 8", cells)
	}
}

func BenchmarkGridQueryRadius(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := randPoints(rng, 100000, 700)
	g := Build(pts, 100, geom.Periodic{L: 700})
	buf := make([]int32, 0, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.QueryRadius(pts[i%len(pts)], 100, buf[:0])
	}
}
