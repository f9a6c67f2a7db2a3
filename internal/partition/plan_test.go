package partition

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"galactos/internal/catalog"
	"galactos/internal/geom"
)

// streamShardedPlan returns stream_sharded's catalog (24,000 clustered
// galaxies at the Outer Rim density, seed 1) and its nparts-part plan, on
// the periodic box or (open) with the box side dropped.
func streamShardedPlan(t testing.TB, nparts int, open bool) (*catalog.Catalog, *Plan) {
	t.Helper()
	const n = 24000
	cat := catalog.Clustered(n, math.Cbrt(n/catalog.OuterRimDensity), catalog.DefaultClusterParams(), 1)
	l := cat.Box.L
	if open {
		l = 0
	}
	ext := catalog.NewExtent()
	if err := ext.Add(cat.Galaxies); err != nil {
		t.Fatal(err)
	}
	p, err := Cut(ext.Root(l), l, nparts, func(visit func([]catalog.Galaxy)) error {
		visit(cat.Galaxies)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return cat, p
}

// placeRef is Place as it stood before its plain-comparison rewrite: the
// differential reference for TestPlaceMatchesReference.
func (p *Plan) placeRef(pos geom.Vec3, rmax float64, halo []int) (int, []int) {
	reach := rmax + float64((rmax+p.scale)*0x1p-40)
	c := [3]float64{pos.X, pos.Y, pos.Z}
	i := int32(0)
	for n := &p.nodes[0]; n.left != 0; n = &p.nodes[i] {
		i = n.left
		far, a, b := i+1, n.cut, n.hi
		if !(c[n.axis] < n.cut) {
			i, far, a, b = far, i, n.lo, n.cut
		}
		var g [3]float64
		if g[n.axis] = wrapGapRef(c[n.axis], a, b, p.l); g[n.axis] <= reach {
			halo = p.nearRef(far, &c, g, reach*reach, halo)
		}
	}
	return int(p.nodes[i].part), halo
}

func (p *Plan) nearRef(i int32, c *[3]float64, gap [3]float64, r2 float64, halo []int) []int {
	n := &p.nodes[i]
	if n.left == 0 {
		return append(halo, int(n.part))
	}
	for side, a, b := int32(0), n.lo, n.cut; side < 2; side, a, b = side+1, n.cut, n.hi {
		g := gap
		g[n.axis] = wrapGapRef(c[n.axis], a, b, p.l)
		if float64(g[0]*g[0])+float64(g[1]*g[1])+float64(g[2]*g[2]) <= r2 {
			halo = p.nearRef(n.left+side, c, g, r2, halo)
		}
	}
	return halo
}

func wrapGapRef(c, a, b, l float64) float64 {
	d := max(a-c, c-b, 0)
	if l > 0 {
		d = min(d, max(a-(c-l), c-l-b, 0), max(a-(c+l), c+l-b, 0))
	}
	return d
}

// TestPlaceMatchesReference pins Place to placeRef — the same owner and the
// same halo list, in the same order — over the catalog's galaxies, uniform
// points in and past the box, points on every cut and one float step either
// side, on the periodic seam, and exactly reach (and one step either side)
// from every cut and every face of the box: 368,000 points on periodic and
// open plans of 8 and 13 parts at RMax 5 and 12.
func TestPlaceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	checked := 0
	for _, open := range []bool{false, true} {
		for _, nparts := range []int{8, 13} {
			cat, p := streamShardedPlan(t, nparts, open)
			l := cat.Box.L
			for _, rmax := range []float64{5, 12} {
				reach := rmax + float64((rmax+p.scale)*0x1p-40)
				// Coordinates worth landing on, per axis: the cuts and the box
				// faces, exactly and reach away, each with its float neighbours.
				var marks [3][]float64
				for _, n := range p.nodes {
					if n.left != 0 {
						marks[n.axis] = append(marks[n.axis], n.cut)
					}
				}
				for ax := range marks {
					marks[ax] = append(marks[ax], 0, l)
					for _, v := range slices.Clone(marks[ax]) {
						marks[ax] = append(marks[ax], v-reach, v+reach)
					}
					for _, v := range slices.Clone(marks[ax]) {
						marks[ax] = append(marks[ax], math.Nextafter(v, math.Inf(-1)), math.Nextafter(v, math.Inf(1)))
					}
				}
				uniform := func(lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }
				pts := cat.Positions()
				for range 6000 {
					pts = append(pts, geom.Vec3{X: uniform(0, l), Y: uniform(0, l), Z: uniform(0, l)},
						geom.Vec3{X: uniform(-2*rmax, l+2*rmax), Y: uniform(-2*rmax, l+2*rmax), Z: uniform(-2*rmax, l+2*rmax)})
				}
				for range 10000 {
					c := [3]float64{uniform(0, l), uniform(0, l), uniform(0, l)}
					for ax := range c {
						if rng.Intn(2) == 0 {
							c[ax] = marks[ax][rng.Intn(len(marks[ax]))]
						}
					}
					pts = append(pts, geom.Vec3{X: c[0], Y: c[1], Z: c[2]})
				}
				var got, want []int
				for i, pos := range pts {
					var ko, kw int
					ko, got = p.Place(pos, rmax, got[:0])
					kw, want = p.placeRef(pos, rmax, want[:0])
					if ko != kw || !slices.Equal(got, want) {
						t.Fatalf("open=%v parts=%d rmax=%v point %d %v: Place (%d, %v), reference (%d, %v)",
							open, nparts, rmax, i, pos, ko, got, kw, want)
					}
				}
				checked += len(pts)
			}
		}
	}
	if checked < 100000 {
		t.Fatalf("checked %d points, want at least 10^5", checked)
	}
	t.Logf("%d points agree", checked)
}

// BenchmarkPlace is the spill pass's per-galaxy placement on
// stream_sharded's 8-part periodic plan at RMax 5, in ns a galaxy.
func BenchmarkPlace(b *testing.B) {
	for _, impl := range []string{"place", "reference"} {
		b.Run(impl, func(b *testing.B) {
			cat, p := streamShardedPlan(b, 8, false)
			place := p.Place
			if impl == "reference" {
				place = p.placeRef
			}
			near := make([]int, 0, 8)
			n := 0
			for b.Loop() {
				for _, g := range cat.Galaxies {
					_, near = place(g.Pos, 5, near[:0])
				}
				n += len(cat.Galaxies)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/galaxy")
		})
	}
}
