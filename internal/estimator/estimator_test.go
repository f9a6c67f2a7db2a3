package estimator

import (
	"math"
	"testing"

	"galactos/internal/catalog"
	"galactos/internal/core"
	"galactos/internal/geom"
	"galactos/internal/hist"
)

func TestMixingMatrixIdentityForPeriodicWindow(t *testing.T) {
	// Maskless geometry: f_l = delta_{l0} -> M must be the identity.
	f := []float64{1, 0, 0, 0, 0}
	m := MixingMatrix(f)
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.N; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(m.At(i, j)-want) > 1e-12 {
				t.Errorf("M[%d][%d] = %v, want %v", i, j, m.At(i, j), want)
			}
		}
	}
}

func TestMixingMatrixRoundTrip(t *testing.T) {
	// Construct N = M * zeta_true with a hand-built window, then verify the
	// solve in EdgeCorrect's inner step recovers zeta_true exactly.
	f := []float64{1, 0.3, -0.1, 0.05}
	m := MixingMatrix(f)
	zTrue := []float64{2.5, -1.0, 0.7, 0.2}
	n := make([]float64, len(zTrue))
	for l := range n {
		for lp := range zTrue {
			n[l] += m.At(l, lp) * zTrue[lp]
		}
	}
	inv, err := m.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	for l := range zTrue {
		got := 0.0
		for lp := range n {
			got += inv.At(l, lp) * n[lp]
		}
		if math.Abs(got-zTrue[l]) > 1e-10 {
			t.Errorf("recovered zeta_%d = %v, want %v", l, got, zTrue[l])
		}
	}
}

func TestMixingMatrixRowStructure(t *testing.T) {
	// The l''=0 term contributes f_0 * delta_{ll'}: diagonal entries must
	// be >= contributions from higher window multipoles for a mild window.
	f := []float64{1, 0.1, 0.05}
	m := MixingMatrix(f)
	for i := 0; i < m.N; i++ {
		if m.At(i, i) < 0.9 {
			t.Errorf("diagonal M[%d][%d] = %v too small for mild window", i, i, m.At(i, i))
		}
	}
}

func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.RMax = 35
	cfg.NBins = 3
	cfg.LMax = 3
	cfg.Workers = 2
	return cfg
}

func TestEdgeCorrectPeriodicIsNearNoOp(t *testing.T) {
	// On a periodic box the randoms' 3PCF multipoles beyond l=0 are pure
	// shot noise, so f_l ~ 0 and the corrected zeta_l must track N_l/R_0.
	data := catalog.Clustered(1500, 150, catalog.DefaultClusterParams(), 3)
	randoms := catalog.Uniform(6000, 150, 4)
	cfg := testConfig()
	dmr, err := catalog.WithDataMinusRandom(data, randoms)
	if err != nil {
		t.Fatal(err)
	}
	nRes, err := core.Compute(dmr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rRes, err := core.Compute(randoms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	corr, err := EdgeCorrect(nRes, rRes)
	if err != nil {
		t.Fatal(err)
	}
	nb := cfg.NBins
	for b1 := 0; b1 < nb; b1++ {
		for b2 := 0; b2 < nb; b2++ {
			r0 := rRes.IsoZeta(0, b1, b2)
			raw := nRes.IsoZeta(0, b1, b2) / r0
			got := corr.Zeta[0][b1*nb+b2]
			// Monopole correction should be a small perturbation.
			if math.Abs(got-raw) > 0.15*(math.Abs(raw)+1e-3) {
				t.Errorf("bins (%d,%d): corrected %v far from raw %v", b1, b2, got, raw)
			}
		}
	}
	if corr.Condition > 10 {
		t.Errorf("condition %v too large for a periodic window", corr.Condition)
	}
}

func TestEdgeCorrectMaskedWindowHasNontrivialF(t *testing.T) {
	// A survey-like geometry (galaxies only in one octant, open
	// boundaries) must produce clearly nonzero window multipoles f_l.
	rng := catalog.Uniform(8000, 120, 8)
	// Cut an octant and treat as open-boundary survey.
	oct := rng.SubBox(geom.Box{Min: geom.Vec3{}, Max: geom.Vec3{X: 60, Y: 60, Z: 120}})
	oct.Box = geom.Periodic{}
	cfg := testConfig()
	cfg.LOS = core.LOSPlaneParallel
	rRes, err := core.Compute(oct, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Window multipoles of the mask itself.
	maxF := 0.0
	for l := 1; l <= cfg.LMax; l++ {
		for b1 := 0; b1 < cfg.NBins; b1++ {
			r0 := rRes.IsoZeta(0, b1, b1)
			if r0 == 0 {
				continue
			}
			f := math.Abs(rRes.IsoZeta(l, b1, b1) / r0)
			if f > maxF {
				maxF = f
			}
		}
	}
	if maxF < 0.02 {
		t.Errorf("masked geometry produced near-zero window multipoles (max %v)", maxF)
	}
}

func TestEdgeCorrectRejectsMismatch(t *testing.T) {
	cat := catalog.Uniform(200, 150, 9)
	cfgA := testConfig()
	ra, err := core.Compute(cat, cfgA)
	if err != nil {
		t.Fatal(err)
	}
	cfgB := testConfig()
	cfgB.LMax = 2
	rb, err := core.Compute(cat, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EdgeCorrect(ra, rb); err == nil {
		t.Error("mismatched configurations accepted")
	}
}

func TestMixingMatrixSymmetryProperty(t *testing.T) {
	// M_{ll'} / (2l'+1) is symmetric in (l, l') by the 3j symmetry.
	f := []float64{1, 0.2, -0.15, 0.08, 0.02}
	m := MixingMatrix(f)
	for l := 0; l < m.N; l++ {
		for lp := 0; lp < m.N; lp++ {
			a := m.At(l, lp) / float64(2*lp+1)
			b := m.At(lp, l) / float64(2*l+1)
			if math.Abs(a-b) > 1e-12 {
				t.Errorf("symmetry broken at (%d,%d)", l, lp)
			}
		}
	}
	// And it must reduce to stats-invertible form for mild windows.
	if _, err := m.Inverse(); err != nil {
		t.Errorf("mild window matrix not invertible: %v", err)
	}
}

// injectIso writes a value into the (l, l, m=0) channel of a synthetic
// result so that IsoZeta(l, b1, b2) returns exactly v: the addition theorem
// gives IsoZeta = 4pi/(2l+1) * Re Aniso for an m=0-only channel.
func injectIso(res *core.Result, l, b1, b2 int, v float64) {
	i, ok := res.Combos.Index(l, l, 0)
	if !ok {
		panic("injectIso: l out of range")
	}
	nb := res.Bins.N
	res.Aniso[(i*nb+b1)*nb+b2] = complex(v*float64(2*l+1)/(4*math.Pi), 0)
}

// TestEdgeCorrectRecoversInjectedMultipoles synthesizes D-R and random
// results with known multipoles — the randoms encode a hand-built window
// f_l, the D-R field encodes N_l = R_0 * (M zeta_true)_l — and verifies the
// full EdgeCorrect pipeline (window extraction, mixing-matrix build, solve)
// recovers zeta_true per radial-bin pair within tolerance.
func TestEdgeCorrectRecoversInjectedMultipoles(t *testing.T) {
	const lmax, nb = 3, 3
	bins, err := hist.NewBinning(0, 30, nb)
	if err != nil {
		t.Fatal(err)
	}
	f := []float64{1, 0.35, -0.12, 0.06}
	m := MixingMatrix(f)
	nRes := core.NewResult(lmax, bins)
	rRes := core.NewResult(lmax, bins)
	zTrue := func(l, b1, b2 int) float64 {
		return 1.5 + 0.3*float64(l) - 0.1*float64(b1) + 0.07*float64(b2)
	}
	const r0 = 2.75 // arbitrary nonzero window monopole
	for b1 := 0; b1 < nb; b1++ {
		for b2 := 0; b2 < nb; b2++ {
			for l := 0; l <= lmax; l++ {
				injectIso(rRes, l, b1, b2, r0*f[l])
				mixed := 0.0
				for lp := 0; lp <= lmax; lp++ {
					mixed += m.At(l, lp) * zTrue(lp, b1, b2)
				}
				injectIso(nRes, l, b1, b2, r0*mixed)
			}
		}
	}
	corr, err := EdgeCorrect(nRes, rRes)
	if err != nil {
		t.Fatal(err)
	}
	for b1 := 0; b1 < nb; b1++ {
		for b2 := 0; b2 < nb; b2++ {
			for l := 0; l <= lmax; l++ {
				if got := corr.WindowF[l][b1*nb+b2]; math.Abs(got-f[l]) > 1e-12 {
					t.Errorf("window f_%d at (%d,%d) = %v, want %v", l, b1, b2, got, f[l])
				}
				want := zTrue(l, b1, b2)
				if got := corr.Zeta[l][b1*nb+b2]; math.Abs(got-want) > 1e-10 {
					t.Errorf("zeta_%d at (%d,%d) = %v, want %v", l, b1, b2, got, want)
				}
			}
		}
	}
}

// TestEdgeCorrectPeriodicWindowExactNoOp: with a pure-monopole window
// (f_l = delta_{l0}, the periodic-volume limit) the mixing matrix is the
// identity and the correction returns N_l / R_0 unchanged up to the
// rounding of one matrix solve.
func TestEdgeCorrectPeriodicWindowExactNoOp(t *testing.T) {
	const lmax, nb = 3, 2
	bins, err := hist.NewBinning(0, 30, nb)
	if err != nil {
		t.Fatal(err)
	}
	nRes := core.NewResult(lmax, bins)
	rRes := core.NewResult(lmax, bins)
	const r0 = 4.0
	inject := func(l, b1, b2 int) float64 {
		return -0.8 + 0.5*float64(l) + 0.25*float64(b1*nb+b2)
	}
	for b1 := 0; b1 < nb; b1++ {
		for b2 := 0; b2 < nb; b2++ {
			injectIso(rRes, 0, b1, b2, r0) // f_l = delta_{l0}
			for l := 0; l <= lmax; l++ {
				injectIso(nRes, l, b1, b2, r0*inject(l, b1, b2))
			}
		}
	}
	corr, err := EdgeCorrect(nRes, rRes)
	if err != nil {
		t.Fatal(err)
	}
	if corr.Condition > 1+1e-10 {
		t.Errorf("identity mixing matrix has condition estimate %v", corr.Condition)
	}
	for b1 := 0; b1 < nb; b1++ {
		for b2 := 0; b2 < nb; b2++ {
			for l := 0; l <= lmax; l++ {
				want := inject(l, b1, b2)
				if got := corr.Zeta[l][b1*nb+b2]; math.Abs(got-want) > 1e-12 {
					t.Errorf("no-op violated: zeta_%d at (%d,%d) = %v, want %v", l, b1, b2, got, want)
				}
			}
		}
	}
}

// TestScaledRandoms pins the normalization-run convention: total weight
// matches the data, positions are untouched, and the input is not mutated.
func TestScaledRandoms(t *testing.T) {
	data := catalog.Uniform(100, 150, 11)
	for i := range data.Galaxies {
		data.Galaxies[i].Weight = 2.0
	}
	randoms := catalog.Uniform(400, 150, 12)
	scaled := ScaledRandoms(data, randoms)
	if got, want := scaled.TotalWeight(), data.TotalWeight(); math.Abs(got-want) > 1e-9 {
		t.Errorf("scaled total weight %v, want %v", got, want)
	}
	if scaled.Len() != randoms.Len() {
		t.Fatalf("length changed: %d vs %d", scaled.Len(), randoms.Len())
	}
	for i := range scaled.Galaxies {
		if scaled.Galaxies[i].Pos != randoms.Galaxies[i].Pos {
			t.Fatalf("position %d changed", i)
		}
		if randoms.Galaxies[i].Weight != 1 {
			t.Fatalf("input randoms mutated at %d", i)
		}
	}
}
