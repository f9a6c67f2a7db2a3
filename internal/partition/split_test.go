package partition

import (
	"math"
	"testing"

	"galactos/internal/catalog"
	"galactos/internal/geom"
)

func TestSplitPartitionsEveryGalaxy(t *testing.T) {
	cat := catalog.Clustered(1100, 190, catalog.DefaultClusterParams(), 3)
	for _, nparts := range []int{1, 2, 3, 5, 8, 13} {
		parts, err := Split(cat, nparts)
		if err != nil {
			t.Fatal(err)
		}
		if len(parts) != nparts {
			t.Fatalf("nparts=%d: got %d parts", nparts, len(parts))
		}
		seen := make([]bool, cat.Len())
		for pi, p := range parts {
			for _, i := range p.Index {
				if seen[i] {
					t.Fatalf("nparts=%d: galaxy %d owned twice", nparts, i)
				}
				seen[i] = true
				if !p.Box.Contains(cat.Galaxies[i].Pos) {
					t.Fatalf("nparts=%d part %d: galaxy %d at %v outside box %+v",
						nparts, pi, i, cat.Galaxies[i].Pos, p.Box)
				}
			}
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("nparts=%d: galaxy %d unowned", nparts, i)
			}
		}
	}
}

func TestSplitIsDeterministic(t *testing.T) {
	cat := catalog.Clustered(700, 170, catalog.DefaultClusterParams(), 9)
	a, err := Split(cat, 6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Split(cat, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Box != b[i].Box || len(a[i].Index) != len(b[i].Index) {
			t.Fatalf("part %d differs between identical splits", i)
		}
		for j := range a[i].Index {
			if a[i].Index[j] != b[i].Index[j] {
				t.Fatalf("part %d index %d differs between identical splits", i, j)
			}
		}
	}
}

func TestHaloContainsExactlyTheBoundaryGalaxies(t *testing.T) {
	const rmax = 35.0
	cat := catalog.Clustered(800, 180, catalog.DefaultClusterParams(), 21)
	parts, err := Split(cat, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range parts {
		owned := make(map[geom.Vec3]bool, len(parts[i].Index))
		for _, gi := range parts[i].Index {
			owned[cat.Galaxies[gi].Pos] = true
		}
		halo := Halo(cat, parts, i, rmax)
		// Every halo copy must lie within rmax of the box and must not
		// duplicate an owned galaxy at its owned position.
		for _, h := range halo {
			if d := pointBoxDist(h.Pos, parts[i].Box); d > rmax {
				t.Fatalf("part %d: halo copy at distance %v > rmax", i, d)
			}
			if owned[h.Pos] && parts[i].Box.Contains(h.Pos) {
				t.Fatalf("part %d: owned galaxy duplicated into its own halo at %v", i, h.Pos)
			}
		}
		// Zero-image halo copies keep their in-box coordinates (image
		// shifts of ±L land outside [0, L)^3), so the in-box halo count
		// must equal the number of other-part galaxies within rmax.
		want := 0
		for j := range parts {
			if j == i {
				continue
			}
			for _, gi := range parts[j].Index {
				if pointBoxDist(cat.Galaxies[gi].Pos, parts[i].Box) <= rmax {
					want++
				}
			}
		}
		got := 0
		for _, h := range halo {
			if insideBox(h.Pos, cat.Box.L) {
				got++
			}
		}
		if got != want {
			t.Fatalf("part %d: %d zero-image halo copies, want %d", i, got, want)
		}
	}
}

func TestHaloContainsAllNeededSecondaries(t *testing.T) {
	// For every part and every owned primary, the part's local catalog must
	// contain every galaxy of the global (periodic) catalog within rmax.
	cat := catalog.Uniform(600, 150, 23)
	const rmax = 30.0
	parts, err := Split(cat, 4)
	if err != nil {
		t.Fatal(err)
	}
	for pi := range parts {
		// The part's open-boundary catalog: owned galaxies, then the
		// image-baked halo copies.
		local := &catalog.Catalog{}
		for _, gi := range parts[pi].Index {
			local.Galaxies = append(local.Galaxies, cat.Galaxies[gi])
		}
		local.Galaxies = append(local.Galaxies, Halo(cat, parts, pi, rmax)...)
		for i := range parts[pi].Index {
			p := local.Galaxies[i].Pos
			// Count neighbors in the global periodic catalog.
			want := 0
			for _, g := range cat.Galaxies {
				d := cat.Box.Separation(p, g.Pos).Norm()
				if d > 0 && d < rmax {
					want++
				}
			}
			// Count neighbors in the local open-boundary catalog.
			got := 0
			for j, g := range local.Galaxies {
				if j == i {
					continue
				}
				d := g.Pos.Sub(p).Norm()
				if d > 0 && d < rmax {
					got++
				}
			}
			if got != want {
				t.Fatalf("part %d primary %d: %d local neighbors, want %d", pi, i, got, want)
			}
		}
	}
}

func TestPointBoxDist(t *testing.T) {
	b := geom.Box{Min: geom.Vec3{X: 0, Y: 0, Z: 0}, Max: geom.Vec3{X: 10, Y: 10, Z: 10}}
	cases := []struct {
		p    geom.Vec3
		want float64
	}{
		{geom.Vec3{X: 5, Y: 5, Z: 5}, 0},
		{geom.Vec3{X: 15, Y: 5, Z: 5}, 5},
		{geom.Vec3{X: -3, Y: -4, Z: 5}, 5},
		{geom.Vec3{X: 13, Y: 14, Z: 10}, 5},
	}
	for _, c := range cases {
		if got := pointBoxDist(c.p, b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("pointBoxDist(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func insideBox(p geom.Vec3, l float64) bool {
	return p.X >= 0 && p.X < l && p.Y >= 0 && p.Y < l && p.Z >= 0 && p.Z < l
}
