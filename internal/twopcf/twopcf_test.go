package twopcf

import (
	"math"
	"testing"

	"galactos/internal/catalog"
)

func TestCountMatchesBruteForce(t *testing.T) {
	cat := catalog.Clustered(400, 150, catalog.DefaultClusterParams(), 3)
	cfg := Config{RMax: 40, NBins: 5, LMax: 2, Workers: 4}
	pc, err := Count(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Brute-force pair count.
	want := make([][]float64, 3)
	for l := range want {
		want[l] = make([]float64, 5)
	}
	pairs := uint64(0)
	for i, g := range cat.Galaxies {
		for j, h := range cat.Galaxies {
			if i == j {
				continue
			}
			sep := cat.Box.Separation(g.Pos, h.Pos)
			r := sep.Norm()
			if r <= 0 || r >= 40 {
				continue
			}
			bin := int(r / 8)
			mu := sep.Z / r
			w := g.Weight * h.Weight
			want[0][bin] += w
			want[1][bin] += w * mu
			want[2][bin] += w * (3*mu*mu - 1) / 2
			pairs++
		}
	}
	if pc.NPairs != pairs {
		t.Errorf("NPairs = %d, want %d", pc.NPairs, pairs)
	}
	for l := 0; l <= 2; l++ {
		for b := 0; b < 5; b++ {
			if math.Abs(pc.Counts[l][b]-want[l][b]) > 1e-9*(1+math.Abs(want[l][b])) {
				t.Errorf("Counts[%d][%d] = %v, want %v", l, b, pc.Counts[l][b], want[l][b])
			}
		}
	}
}

// TestCountWorkerInvariance pins Counts as a function of the catalog and
// config alone: bitwise the same at any worker count and on every repeat.
func TestCountWorkerInvariance(t *testing.T) {
	cat := catalog.Uniform(800, 200, 5)
	cfg := Config{RMax: 50, NBins: 10, LMax: 2, Workers: 1}
	ref, err := Count(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		for rep := 0; rep < 3; rep++ {
			cfg.Workers = workers
			got, err := Count(cat, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.NPairs != ref.NPairs {
				t.Fatalf("workers=%d rep %d: %d pairs, want %d", workers, rep, got.NPairs, ref.NPairs)
			}
			for l := range ref.Counts {
				for bin, want := range ref.Counts[l] {
					if v := got.Counts[l][bin]; math.Float64bits(v) != math.Float64bits(want) {
						t.Fatalf("workers=%d rep %d: Counts[%d][%d] = %v, want %v bitwise", workers, rep, l, bin, v, want)
					}
				}
			}
		}
	}
}

func TestCountValidation(t *testing.T) {
	cat := catalog.Uniform(10, 100, 1)
	if _, err := Count(cat, Config{RMax: 0, NBins: 5}); err == nil {
		t.Error("zero RMax accepted")
	}
	if _, err := Count(cat, Config{RMax: 40, NBins: 5, LMax: -1}); err == nil {
		t.Error("negative LMax accepted")
	}
	if _, err := Count(cat, Config{RMax: 60, NBins: 5}); err == nil {
		t.Error("RMax >= L/2 accepted")
	}
}

func TestCountEmptyCatalog(t *testing.T) {
	cat := &catalog.Catalog{}
	pc, err := Count(cat, Config{RMax: 10, NBins: 2})
	if err != nil {
		t.Fatal(err)
	}
	if pc.NPairs != 0 {
		t.Error("pairs from empty catalog")
	}
}

func TestQuadrupoleDetectsRSD(t *testing.T) {
	// The anisotropic 2PCF quadrupole must be ~0 for an isotropic catalog
	// and clearly nonzero for a line-of-sight-distorted one.
	params := catalog.DefaultClusterParams()
	iso := catalog.Clustered(3000, 300, params, 8)
	params.ZStretch = 3
	rsd := catalog.Clustered(3000, 300, params, 8)
	cfg := Config{RMax: 30, NBins: 3, LMax: 2}

	ratio := func(cat *catalog.Catalog) float64 {
		pc, err := Count(cat, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var q, m float64
		for b := 0; b < cfg.NBins; b++ {
			q += pc.Counts[2][b]
			m += pc.Counts[0][b]
		}
		return math.Abs(q / m)
	}
	if ri, rr := ratio(iso), ratio(rsd); rr < 2*ri {
		t.Errorf("quadrupole/monopole: iso %v vs rsd %v — RSD not detected", ri, rr)
	}
}

func TestLandySzalayUniformIsZero(t *testing.T) {
	// xi ~ 0 for a random catalog against randoms.
	data := catalog.Uniform(3000, 250, 10)
	random := catalog.Uniform(9000, 250, 11)
	xi, err := LandySzalay(data, random, Config{RMin: 10, RMax: 60, NBins: 5})
	if err != nil {
		t.Fatal(err)
	}
	for b, v := range xi {
		if math.Abs(v) > 0.15 {
			t.Errorf("xi[%d] = %v, want ~0 for randoms", b, v)
		}
	}
}

func TestLandySzalayDetectsClustering(t *testing.T) {
	data := catalog.Clustered(3000, 250, catalog.DefaultClusterParams(), 12)
	random := catalog.Uniform(9000, 250, 13)
	xi, err := LandySzalay(data, random, Config{RMin: 1, RMax: 15, NBins: 2})
	if err != nil {
		t.Fatal(err)
	}
	if xi[0] < 1 {
		t.Errorf("small-scale xi = %v, want strong clustering (> 1)", xi[0])
	}
	if _, err := LandySzalay(data, &catalog.Catalog{Box: data.Box}, Config{RMax: 10, NBins: 2}); err == nil {
		t.Error("empty randoms accepted")
	}
}

func TestMultipoleNormalization(t *testing.T) {
	pc := &PairCounts{LMax: 2, Counts: [][]float64{{4}, {2}, {1}}}
	if got := pc.Multipole(0, 0); got != 2 {
		t.Errorf("l=0 multipole = %v, want 2", got)
	}
	if got := pc.Multipole(2, 0); got != 2.5 {
		t.Errorf("l=2 multipole = %v, want 2.5", got)
	}
}
