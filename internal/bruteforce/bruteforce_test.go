package bruteforce

import (
	"math"
	"math/cmplx"
	"testing"

	"galactos/internal/catalog"
	"galactos/internal/core"
	"galactos/internal/geom"
)

// testConfig returns a small configuration suitable for O(N^3) runs.
func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.RMax = 60
	cfg.NBins = 5
	cfg.LMax = 4
	cfg.Workers = 4
	return cfg
}

// TestEngineMatchesBruteForceAniso is the central correctness test of the
// whole repository: the O(N^2) multipole engine must reproduce the O(N^3)
// direct triplet count exactly (to floating point) — every channel, every
// bin pair, both line-of-sight conventions, with non-trivial weights.
func TestEngineMatchesBruteForceAniso(t *testing.T) {
	for _, los := range []core.LOSMode{core.LOSPlaneParallel, core.LOSRadial} {
		cat := catalog.Clustered(120, 150, catalog.DefaultClusterParams(), 42)
		// Mix in negative weights (random-catalog style).
		for i := range cat.Galaxies {
			if i%5 == 0 {
				cat.Galaxies[i].Weight = -0.7
			} else if i%3 == 0 {
				cat.Galaxies[i].Weight = 1.5
			}
		}
		cfg := testConfig()
		cfg.LOS = los
		if los == core.LOSRadial {
			// Periodic minimal-image separations with a radial LOS need an
			// observer; keep it outside the box for a survey-like geometry
			// and disable periodicity for a clean comparison.
			cat.Box = geom.Periodic{}
			cfg.Observer = geom.Vec3{X: -500, Y: -300, Z: -1000}
		}

		want, err := Aniso(cat, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.Compute(cat, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.NPrimaries != want.NPrimaries {
			t.Fatalf("%v: primaries %d vs %d", los, got.NPrimaries, want.NPrimaries)
		}
		if got.Pairs != want.Pairs {
			t.Fatalf("%v: pairs %d vs %d", los, got.Pairs, want.Pairs)
		}
		scale := want.MaxAbs()
		if scale == 0 {
			t.Fatalf("%v: degenerate test (all channels zero)", los)
		}
		if d := got.MaxAbsDiff(want); d > 1e-9*scale {
			t.Errorf("%v: engine vs brute force max diff %v (scale %v)", los, d, scale)
		}
	}
}

// TestEngineMatchesBruteForceIso checks the isotropic multipoles against the
// Legendre-polynomial-only triplet count — an oracle that never touches the
// spherical harmonic code paths.
func TestEngineMatchesBruteForceIso(t *testing.T) {
	cat := catalog.Clustered(100, 140, catalog.DefaultClusterParams(), 7)
	cfg := testConfig()
	res, err := core.Compute(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Iso(cat, cfg.RMin, cfg.RMax, cfg.NBins, cfg.LMax)
	if err != nil {
		t.Fatal(err)
	}
	scale := 0.0
	for _, row := range want {
		for _, v := range row {
			if a := math.Abs(v); a > scale {
				scale = a
			}
		}
	}
	for l := 0; l <= cfg.LMax; l++ {
		for b1 := 0; b1 < cfg.NBins; b1++ {
			for b2 := 0; b2 < cfg.NBins; b2++ {
				got := res.IsoZeta(l, b1, b2)
				w := want[l][b1*cfg.NBins+b2]
				if math.Abs(got-w) > 1e-9*scale {
					t.Fatalf("IsoZeta(l=%d, %d, %d) = %v, want %v", l, b1, b2, got, w)
				}
			}
		}
	}
}

// TestIsoIsRotationInvariant: the isotropic multipoles must not depend on
// the line-of-sight mode (the Legendre basis "is symmetric under rotations
// by construction", Sec. 2.2).
func TestIsoIsRotationInvariant(t *testing.T) {
	cat := catalog.Uniform(100, 140, 3)
	cat.Box = geom.Periodic{} // open boundaries so both LOS modes are exact
	cfgA := testConfig()
	cfgA.LOS = core.LOSPlaneParallel
	cfgB := testConfig()
	cfgB.LOS = core.LOSRadial
	cfgB.Observer = geom.Vec3{X: 300, Y: -200, Z: 777}

	ra, err := core.Compute(cat, cfgA)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := core.Compute(cat, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l <= cfgA.LMax; l++ {
		for b1 := 0; b1 < cfgA.NBins; b1++ {
			for b2 := 0; b2 < cfgA.NBins; b2++ {
				a := ra.IsoZeta(l, b1, b2)
				b := rb.IsoZeta(l, b1, b2)
				if math.Abs(a-b) > 1e-8*(1+math.Abs(a)) {
					t.Fatalf("IsoZeta(l=%d,%d,%d) depends on LOS: %v vs %v", l, b1, b2, a, b)
				}
			}
		}
	}
}

// TestAnisotropyDetectsRSD: an isotropic catalog must have (statistically)
// no m != 0 power, while a line-of-sight-distorted one must show it — the
// paper's entire scientific motivation (Sec. 1.2).
func TestAnisotropyDetectsRSD(t *testing.T) {
	params := catalog.DefaultClusterParams()
	isoCat := catalog.Clustered(600, 200, params, 5)
	params.ZStretch = 3 // strong finger-of-god-like distortion
	rsdCat := catalog.Clustered(600, 200, params, 5)

	cfg := testConfig()
	cfg.RMax = 40
	cfg.NBins = 4
	cfg.LMax = 4

	// For an isotropic field, <a_{l1 m} a*_{l2 m}> vanishes for l1 != l2 and
	// is m-independent for l1 == l2; line-of-sight distortion populates the
	// cross-l channels. The quadrupole-monopole cross channel zeta^0_{02}
	// normalized by the monopole zeta^0_{00} is the cleanest discriminator.
	quadMono := func(cat *catalog.Catalog) float64 {
		res, err := core.Compute(cat, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var q, m float64
		for b := 0; b < cfg.NBins; b++ {
			q += real(res.ZetaM(0, 2, 0, b, b))
			m += real(res.ZetaM(0, 0, 0, b, b))
		}
		return math.Abs(q / m)
	}
	isoQ := quadMono(isoCat)
	rsdQ := quadMono(rsdCat)
	if rsdQ < 3*isoQ || rsdQ < 0.05 {
		t.Errorf("RSD quadrupole/monopole %v not clearly above isotropic %v", rsdQ, isoQ)
	}
}

func TestTripletHistogramMatchesL0(t *testing.T) {
	cat := catalog.Uniform(80, 120, 9)
	iso, err := Iso(cat, 0, 50, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The l = 0 moment is the raw weighted triangle histogram: its total
	// must equal the direct count of ordered secondary pairs around each
	// primary.
	sum := 0.0
	for _, v := range iso[0] {
		sum += v
	}
	want := 0.0
	pts := cat.Positions()
	for p := range pts {
		n := 0
		for j := range pts {
			if j == p {
				continue
			}
			r := cat.Box.Separation(pts[p], pts[j]).Norm()
			if r > 0 && r < 50 {
				n++
			}
		}
		want += float64(n * (n - 1))
	}
	if math.Abs(sum-want) > 1e-6 {
		t.Errorf("total triangles %v, want %v", sum, want)
	}
}

func TestBruteForcePairsSymmetricZeta(t *testing.T) {
	// zeta^m_{l2 l1}(b1, b2) = conj(zeta^m_{l1 l2}(b2, b1)) must hold for
	// the brute-force result by construction of ZetaM.
	cat := catalog.Uniform(60, 120, 13)
	cfg := testConfig()
	res, err := Aniso(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Combos.Combos {
		if c.L1 == c.L2 {
			continue
		}
		for b1 := 0; b1 < cfg.NBins; b1++ {
			for b2 := 0; b2 < cfg.NBins; b2++ {
				a := res.ZetaM(c.L1, c.L2, c.M, b1, b2)
				b := res.ZetaM(c.L2, c.L1, c.M, b2, b1)
				if cmplx.Abs(a-cmplx.Conj(b)) > 1e-12*(1+cmplx.Abs(a)) {
					t.Fatalf("symmetry violated at %+v (%d,%d)", c, b1, b2)
				}
			}
		}
	}
}
