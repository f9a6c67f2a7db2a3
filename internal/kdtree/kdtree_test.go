package kdtree

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

// linearScan is the oracle: all indices within r of c.
func linearScan(pts []geom.Vec3, c geom.Vec3, r float64) []int32 {
	var out []int32
	for i, p := range pts {
		if p.Sub(c).Norm() <= r {
			out = append(out, int32(i))
		}
	}
	return out
}

func sortIDs(s []int32) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

func sameIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestQueryRadiusMatchesLinearScan64(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := randPoints(rng, 2000, 100)
	tree := Build[float64](pts, 0)
	for trial := 0; trial < 50; trial++ {
		c := geom.Vec3{X: rng.Float64() * 100, Y: rng.Float64() * 100, Z: rng.Float64() * 100}
		r := rng.Float64() * 30
		got := tree.QueryRadius(c, r, nil)
		want := linearScan(pts, c, r)
		sortIDs(got)
		sortIDs(want)
		if !sameIDs(got, want) {
			t.Fatalf("trial %d: got %d ids, want %d", trial, len(got), len(want))
		}
	}
}

func TestQueryRadiusMatchesLinearScan32(t *testing.T) {
	// Float32 storage: allow boundary disagreement only for points whose
	// exact distance is within float32 epsilon of r.
	rng := rand.New(rand.NewSource(2))
	pts := randPoints(rng, 1500, 50)
	tree := Build[float32](pts, 8)
	for trial := 0; trial < 30; trial++ {
		c := pts[rng.Intn(len(pts))]
		r := 5 + rng.Float64()*10
		got := tree.QueryRadius(c, r, nil)
		gotSet := make(map[int32]bool, len(got))
		for _, id := range got {
			gotSet[id] = true
		}
		for i, p := range pts {
			d := p.Sub(c).Norm()
			in := gotSet[int32(i)]
			if d < r*(1-1e-5) && !in {
				t.Fatalf("missed point %d at distance %v (r=%v)", i, d, r)
			}
			if d > r*(1+1e-5) && in {
				t.Fatalf("spurious point %d at distance %v (r=%v)", i, d, r)
			}
		}
	}
}

func TestQueryRadiusImagesMatchesPerImageQueries(t *testing.T) {
	// The fused multi-image query must return exactly what the per-image
	// QueryRadius loop returned (the engine's pre-fusion behavior), for
	// both open boundaries and a periodic 27-image sweep.
	rng := rand.New(rand.NewSource(7))
	box := geom.Periodic{L: 80}
	pts := randPoints(rng, 1500, 80)
	tree := Build[float64](pts, 0)
	for _, tc := range []struct {
		name   string
		images []geom.Vec3
	}{
		{"open", []geom.Vec3{{}}},
		{"periodic-27", box.Images(20)},
	} {
		for trial := 0; trial < 30; trial++ {
			c := pts[rng.Intn(len(pts))]
			r := 2 + rng.Float64()*18
			got := tree.QueryRadiusImages(c, r, tc.images, nil)
			var want []int32
			for _, off := range tc.images {
				want = tree.QueryRadius(c.Add(off), r, want)
			}
			sortIDs(got)
			sortIDs(want)
			if !sameIDs(got, want) {
				t.Fatalf("%s trial %d: fused %d ids, per-image %d", tc.name, trial, len(got), len(want))
			}
		}
	}
}

func TestQueryRadiusImagesNoDuplicates(t *testing.T) {
	// Edge primaries match through exactly one image: the fused sweep must
	// never report an index twice (image centers are >= 2r apart).
	rng := rand.New(rand.NewSource(8))
	box := geom.Periodic{L: 60}
	pts := randPoints(rng, 1000, 60)
	tree := Build[float32](pts, 0)
	images := box.Images(25)
	for trial := 0; trial < 30; trial++ {
		// Bias centers toward the box corner so wrapping is exercised.
		c := geom.Vec3{X: rng.Float64() * 5, Y: rng.Float64() * 5, Z: rng.Float64() * 5}
		ids := tree.QueryRadiusImages(c, 25, images, nil)
		seen := make(map[int32]bool, len(ids))
		for _, id := range ids {
			if seen[id] {
				t.Fatalf("trial %d: duplicate id %d", trial, id)
			}
			seen[id] = true
		}
	}
}

func TestQueryRadiusImagesEmptyTree(t *testing.T) {
	tree := Build[float64](nil, 0)
	if got := tree.QueryRadiusImages(geom.Vec3{}, 5, []geom.Vec3{{}}, nil); len(got) != 0 {
		t.Fatalf("empty tree returned %d ids", len(got))
	}
}

func TestQueryIncludesCenterPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := randPoints(rng, 500, 10)
	tree := Build[float64](pts, 4)
	for i := range pts {
		ids := tree.QueryRadius(pts[i], 1e-12, nil)
		found := false
		for _, id := range ids {
			if id == int32(i) {
				found = true
			}
		}
		if !found {
			t.Fatalf("query at point %d did not return the point itself", i)
		}
	}
}

func TestEmptyTree(t *testing.T) {
	tree := Build[float64](nil, 0)
	if tree.Len() != 0 {
		t.Error("empty tree has nonzero Len")
	}
	if got := tree.QueryRadius(geom.Vec3{}, 10, nil); len(got) != 0 {
		t.Error("empty tree returned results")
	}
}

func TestSinglePoint(t *testing.T) {
	pts := []geom.Vec3{{X: 1, Y: 2, Z: 3}}
	tree := Build[float64](pts, 0)
	if got := tree.QueryRadius(geom.Vec3{X: 1, Y: 2, Z: 3}, 0.1, nil); len(got) != 1 || got[0] != 0 {
		t.Errorf("got %v", got)
	}
	if got := tree.QueryRadius(geom.Vec3{X: 5, Y: 5, Z: 5}, 0.1, nil); len(got) != 0 {
		t.Errorf("got %v, want empty", got)
	}
}

func TestDuplicatePoints(t *testing.T) {
	// Many coincident points stress the median partition.
	pts := make([]geom.Vec3, 300)
	for i := range pts {
		pts[i] = geom.Vec3{X: 1, Y: 1, Z: 1}
	}
	tree := Build[float64](pts, 8)
	got := tree.QueryRadius(geom.Vec3{X: 1, Y: 1, Z: 1}, 0.5, nil)
	if len(got) != 300 {
		t.Errorf("got %d results, want 300", len(got))
	}
}

func TestCollinearPoints(t *testing.T) {
	pts := make([]geom.Vec3, 100)
	for i := range pts {
		pts[i] = geom.Vec3{X: float64(i)}
	}
	tree := Build[float64](pts, 4)
	got := tree.QueryRadius(geom.Vec3{X: 50}, 5, nil)
	if len(got) != 11 { // 45..55 inclusive
		t.Errorf("got %d results, want 11", len(got))
	}
}

func TestQueryAppendsToExistingSlice(t *testing.T) {
	pts := []geom.Vec3{{X: 0}, {X: 1}, {X: 2}}
	tree := Build[float64](pts, 0)
	buf := []int32{99}
	out := tree.QueryRadius(geom.Vec3{}, 0.5, buf)
	if len(out) != 2 || out[0] != 99 {
		t.Errorf("append semantics broken: %v", out)
	}
}

func TestBuildDeterministicResults(t *testing.T) {
	// Parallel build must not change query answers across builds.
	rng := rand.New(rand.NewSource(10))
	pts := randPoints(rng, 5000, 200)
	t1 := Build[float64](pts, 0)
	t2 := Build[float64](pts, 0)
	for trial := 0; trial < 20; trial++ {
		c := pts[rng.Intn(len(pts))]
		a := t1.QueryRadius(c, 25, nil)
		b := t2.QueryRadius(c, 25, nil)
		sortIDs(a)
		sortIDs(b)
		if !sameIDs(a, b) {
			t.Fatal("two builds over identical input disagree")
		}
	}
}

func TestLargeLeafSizeDegeneratesToScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := randPoints(rng, 200, 10)
	tree := Build[float64](pts, 10000) // single leaf
	if len(tree.nodes) != 1 {
		t.Errorf("expected 1 node, got %d", len(tree.nodes))
	}
	c := pts[0]
	got := tree.QueryRadius(c, 3, nil)
	want := linearScan(pts, c, 3)
	sortIDs(got)
	sortIDs(want)
	if !sameIDs(got, want) {
		t.Error("single-leaf tree disagrees with linear scan")
	}
}

// BenchmarkBuild builds a tree the size of one stream_sharded part's: 6.5 k
// points, here in a 69.3 x 69.3 slab 18.7 deep (one eighth of the box plus
// a 5-wide halo on each side), the index a sharded run builds per part.
func BenchmarkBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]geom.Vec3, 6500)
	for i := range pts {
		pts[i] = geom.Vec3{X: rng.Float64() * 18.7, Y: rng.Float64() * 69.3, Z: rng.Float64() * 69.3}
	}
	for b.Loop() {
		Build[float32](pts, 0)
	}
}

func BenchmarkBuild100k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := randPoints(rng, 100000, 700)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build[float32](pts, 0)
	}
}

func BenchmarkQueryRadius(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := randPoints(rng, 100000, 700) // density ~0.29e-3; r=100 gives ~1200 neighbors
	tree := Build[float32](pts, 0)
	buf := make([]int32, 0, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = tree.QueryRadius(pts[i%len(pts)], 100, buf[:0])
	}
}
