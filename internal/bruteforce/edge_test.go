package bruteforce

import (
	"math"
	"math/rand"
	"testing"

	"galactos/internal/catalog"
	"galactos/internal/core"
	"galactos/internal/geom"
)

// TestEngineCountsRMaxEdgePairs pins pair membership where a float32 search
// and the float64 pair pass can disagree: pairs whose float64 separation is
// one step below RMax, RMax itself (or the first value above it) and the next
// value above, at coordinates 10^3-10^4 from the origin, where a float32
// coordinate is ~5e-4 coarse. Each edge pair has interior neighbours, so a
// lost pair also loses triangles. On an open and a periodic box (where some
// edge pairs cross the wrap) the engine must count exactly the pairs below
// RMax and match direct triplet counting.
func TestEngineCountsRMaxEdgePairs(t *testing.T) {
	const rmax = 30.0
	for _, box := range []geom.Periodic{{}, {L: 1e4}} {
		cat, below := edgeCatalog(t, box, rmax)
		cfg := testConfig()
		cfg.RMax = rmax
		cfg.NBins = 3
		want, err := Aniso(cat, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.Compute(cat, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Pairs != want.Pairs {
			t.Errorf("L=%v: engine counts %d pairs, direct %d (%d edge pairs one step below RMax)",
				box.L, got.Pairs, want.Pairs, 2*below)
		}
		scale := want.MaxAbs()
		if d := got.MaxAbsDiff(want); d > 1e-9*scale {
			t.Errorf("L=%v: engine vs brute force max diff %v (scale %v)", box.L, d, scale)
		}
	}
}

// edgeCatalog builds 24 isolated clusters. Each has a primary p, three
// interior neighbours within 8 of it along each axis, and three edge
// secondaries, roughly along x, y and z, at float64 separations just below
// rmax, at or just above it, and above it. It returns the number of
// below-rmax edge pairs. On a periodic box every sixth cluster sits within 25
// of the x = L face, so its below-rmax pair crosses the wrap.
func edgeCatalog(t *testing.T, box geom.Periodic, rmax float64) (*catalog.Catalog, int) {
	rng := rand.New(rand.NewSource(5))
	cat := &catalog.Catalog{Box: box}
	add := func(p geom.Vec3) {
		cat.Galaxies = append(cat.Galaxies, catalog.Galaxy{Pos: box.Wrap(p), Weight: 0.5 + rng.Float64()})
	}
	jitter := func(a float64) float64 { return a * (2*rng.Float64() - 1) }
	below := 0
	for k := 0; k < 24; k++ {
		p := geom.Vec3{X: 1000 + 350*float64(k), Y: 1200 + 277*float64(k), Z: 9000 - 301*float64(k)}
		p = p.Add(geom.Vec3{X: 10 * rng.Float64(), Y: 10 * rng.Float64(), Z: 10 * rng.Float64()})
		sign := float64(1 - 2*(k%2))
		if box.L > 0 && k%6 == 0 {
			p.X = box.L - 5 - 20*rng.Float64()
		}
		add(p)
		for i := 0; i < 3; i++ {
			add(p.Add(geom.Vec3{X: jitter(8), Y: jitter(8), Z: jitter(8)}))
		}
		for probe := 0; probe < 3; probe++ {
			u := [3]float64{jitter(0.3), jitter(0.3), jitter(0.3)}
			u[probe] = sign
			q := edgeProbes(box, p, u, probe, rmax)[probe]
			s := box.Separation(p, q)
			r := math.Sqrt(float64(s.X*s.X) + float64(s.Y*s.Y) + float64(s.Z*s.Z))
			if (probe == 0) != (r < rmax) {
				t.Fatalf("cluster %d probe %d: separation %v on the wrong side of %v", k, probe, r, rmax)
			}
			if probe == 0 {
				below++
			}
			add(q)
		}
	}
	return cat, below
}

// edgeProbes returns three points near p + rmax*u/|u| whose float64
// separation from p, computed as the engine's pair pass does, is the largest
// value below rmax, the smallest at or above it, and the smallest above it.
// They differ only in coordinate axis, u's largest component, stepped one
// float64 ulp at a time.
func edgeProbes(box geom.Periodic, p geom.Vec3, u [3]float64, axis int, rmax float64) [3]geom.Vec3 {
	n := rmax / math.Sqrt(u[0]*u[0]+u[1]*u[1]+u[2]*u[2])
	c := [3]float64{p.X + n*u[0], p.Y + n*u[1], p.Z + n*u[2]}
	at := func(x float64) geom.Vec3 {
		c[axis] = x
		return box.Wrap(geom.Vec3{X: c[0], Y: c[1], Z: c[2]})
	}
	r := func(x float64) float64 {
		s := box.Separation(p, at(x))
		return math.Sqrt(float64(s.X*s.X) + float64(s.Y*s.Y) + float64(s.Z*s.Z))
	}
	dir := math.Copysign(1, u[axis])
	step := func(x, d float64) float64 { return math.Nextafter(x, d*math.Inf(1)) }
	x := c[axis]
	for r(x) >= rmax {
		x = step(x, -dir)
	}
	for r(x) < rmax {
		x = step(x, dir)
	}
	above := step(x, dir)
	for r(above) <= rmax {
		above = step(above, dir)
	}
	return [3]geom.Vec3{at(step(x, -dir)), at(x), at(above)}
}
