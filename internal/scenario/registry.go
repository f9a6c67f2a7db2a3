// The registry rows. Every scenario leaves Workers at its GOMAXPROCS
// default — the engine's result bits do not depend on it — and uses small
// boxes/radii so the whole registry smoke-runs in seconds. Golden hashes in
// testdata/golden.json were generated at (GoldenN, GoldenSeed).

package scenario

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"

	"galactos/internal/catalog"
	"galactos/internal/core"
	"galactos/internal/exec"
	"galactos/internal/geom"
	"galactos/internal/twopcf"
)

var registry = []*Scenario{
	periodicIso(),
	isoMidpoint(),
	anisoLOSRadial(),
	periodicAnisoRSD(),
	surveyEstimator(),
	jackknifeCovariance(),
	twopcfCrossCheck(),
	griddedVsExact(),
}

// All returns the registry rows in registration order.
func All() []*Scenario {
	out := make([]*Scenario, len(registry))
	copy(out, registry)
	return out
}

// Get resolves a scenario by name.
func Get(name string) (*Scenario, error) {
	names := make([]string, len(registry))
	for i, s := range registry {
		if s.Name == name {
			return s, nil
		}
		names[i] = s.Name
	}
	return nil, fmt.Errorf("scenario: unknown scenario %q (have %v)", name, names)
}

// runOne runs a single catalog on the backend spec and assembles the
// shared Outcome fields.
func runOne(ctx context.Context, spec exec.Spec, name string, cat *catalog.Catalog, cfg core.Config, n int, seed int64) (*Outcome, *exec.RunResult, error) {
	run, err := exec.Run(ctx, exec.Request{Catalog: cat, Config: cfg, Backend: spec})
	if err != nil {
		return nil, nil, err
	}
	return &Outcome{
		Scenario: name,
		N:        n,
		Seed:     seed,
		Elapsed:  run.Elapsed,
		Result:   run.Result,
	}, run, nil
}

func clampN(n, minN int) int {
	if n < minN {
		return minN
	}
	return n
}

// --- shared invariants -------------------------------------------------

// invPairsPositive: the kernel processed at least one pair — the catalog
// recipe actually populates the radial range.
func invPairsPositive() Invariant {
	return Invariant{
		Name: "pairs-positive",
		Desc: "kernel processed at least one pair",
		Check: func(o *Outcome) error {
			if o.Result == nil || o.Result.Pairs == 0 {
				return fmt.Errorf("no pairs processed")
			}
			return nil
		},
	}
}

// invUnitWeights: the merged SumWeight equals the primary count exactly
// (unit-weight recipes); holds across backends because per-unit sums of
// integers are exact.
func invUnitWeights() Invariant {
	return Invariant{
		Name: "unit-weight-sum",
		Desc: "SumWeight == NPrimaries for unit-weight catalogs",
		Check: func(o *Outcome) error {
			want := float64(o.Result.NPrimaries)
			if o.Result.SumWeight != want {
				return fmt.Errorf("SumWeight %v != NPrimaries %v", o.Result.SumWeight, want)
			}
			return nil
		},
	}
}

// invM0Real: zeta^{m=0} channels are real up to rounding — a parity
// property of the a_lm outer products (measured exactly zero on the seed
// engine; the tolerance absorbs future regrouping).
func invM0Real() Invariant {
	return Invariant{
		Name: "m0-imag-zero",
		Desc: "Im zeta^{m=0}_{ll} vanishes (parity)",
		Check: func(o *Outcome) error {
			r := o.Result
			scale := r.MaxAbs()
			if scale == 0 {
				return fmt.Errorf("empty result")
			}
			worst := 0.0
			for l := 0; l <= r.LMax; l++ {
				for b1 := 0; b1 < r.Bins.N; b1++ {
					for b2 := 0; b2 < r.Bins.N; b2++ {
						if v := math.Abs(imag(r.ZetaM(l, l, 0, b1, b2))); v > worst {
							worst = v
						}
					}
				}
			}
			if worst > 1e-12*scale {
				return fmt.Errorf("worst |Im zeta^0| %g exceeds %g", worst, 1e-12*scale)
			}
			return nil
		},
	}
}

// invIsoBinSymmetry: zeta_l(b1, b2) == zeta_l(b2, b1) — the isotropic
// multipoles are symmetric under exchanging the two triangle sides.
func invIsoBinSymmetry() Invariant {
	return Invariant{
		Name: "iso-bin-symmetry",
		Desc: "zeta_l(b1,b2) == zeta_l(b2,b1)",
		Check: func(o *Outcome) error {
			r := o.Result
			scale := r.MaxAbs()
			if scale == 0 {
				return fmt.Errorf("empty result")
			}
			worst := 0.0
			for l := 0; l <= r.LMax; l++ {
				for b1 := 0; b1 < r.Bins.N; b1++ {
					for b2 := b1 + 1; b2 < r.Bins.N; b2++ {
						if v := math.Abs(r.IsoZeta(l, b1, b2) - r.IsoZeta(l, b2, b1)); v > worst {
							worst = v
						}
					}
				}
			}
			if worst > 1e-12*scale {
				return fmt.Errorf("worst bin asymmetry %g exceeds %g", worst, 1e-12*scale)
			}
			return nil
		},
	}
}

// invAnisoSignal: at least one off-diagonal (l1 != l2) channel carries
// signal — the anisotropic accumulation is actually on.
func invAnisoSignal() Invariant {
	return Invariant{
		Name: "aniso-offdiag-signal",
		Desc: "some l1 != l2 channel is nonzero",
		Check: func(o *Outcome) error {
			r := o.Result
			worst := 0.0
			for l1 := 0; l1 <= r.LMax; l1++ {
				for l2 := l1 + 1; l2 <= r.LMax; l2++ {
					for b1 := 0; b1 < r.Bins.N; b1++ {
						for b2 := 0; b2 < r.Bins.N; b2++ {
							if v := cmplx.Abs(r.ZetaM(l1, l2, 0, b1, b2)); v > worst {
								worst = v
							}
						}
					}
				}
			}
			if worst == 0 {
				return fmt.Errorf("all off-diagonal channels are exactly zero")
			}
			return nil
		},
	}
}

// --- scenarios ---------------------------------------------------------

// periodicIso is the Slepian–Eisenstein baseline mode (Sec. 2.2): the
// isotropic 3PCF of a clustered periodic box.
func periodicIso() *Scenario {
	const name = "periodic-iso"
	cfg := core.Config{
		RMax: 40, NBins: 5, LMax: 4,
		LOS: core.LOSPlaneParallel, SelfCount: true, IsotropicOnly: true,
	}
	return &Scenario{
		Name:       name,
		Desc:       "isotropic 3PCF of a clustered periodic box (Sec. 2.2 baseline)",
		GoldenN:    1500,
		GoldenSeed: 101,
		MinN:       300,
		Run: func(ctx context.Context, spec exec.Spec, n int, seed int64) (*Outcome, error) {
			n = clampN(n, 300)
			cat := catalog.Clustered(n, 240, catalog.DefaultClusterParams(), seed)
			o, _, err := runOne(ctx, spec, name, cat, cfg, n, seed)
			return o, err
		},
		Invariants: []Invariant{
			invPairsPositive(), invUnitWeights(), invM0Real(), invIsoBinSymmetry(),
		},
	}
}

// isoMidpoint runs the isotropic 3PCF under the midpoint line of sight (the
// pair-swap-symmetric survey convention, rotated per pair) on the
// IsotropicOnly fast ladder. The row pins the two paths end-to-end (one
// golden hash under every lane dispatch, cross-backend equivalence via the
// shared harnesses).
func isoMidpoint() *Scenario {
	const name = "iso-midpoint"
	cfg := core.Config{
		RMax: 40, NBins: 5, LMax: 4,
		LOS: core.LOSMidpoint, Observer: geom.Vec3{X: -400, Y: -500, Z: -600},
		SelfCount: true, IsotropicOnly: true,
	}
	return &Scenario{
		Name:       name,
		Desc:       "isotropic 3PCF under the swap-symmetric midpoint line of sight",
		GoldenN:    1500,
		GoldenSeed: 108,
		MinN:       300,
		Run: func(ctx context.Context, spec exec.Spec, n int, seed int64) (*Outcome, error) {
			n = clampN(n, 300)
			// Open boundaries: a survey-like volume is the midpoint
			// frame's natural geometry (it is built from both galaxies'
			// absolute positions). Every backend computes on the source's
			// own coordinates, so a periodic box would agree across
			// backends too — exec's TestBackendEquivalenceGolden pins that.
			boxed := catalog.Clustered(n, 240, catalog.DefaultClusterParams(), seed)
			cat := &catalog.Catalog{Galaxies: boxed.Galaxies}
			o, _, err := runOne(ctx, spec, name, cat, cfg, n, seed)
			return o, err
		},
		Invariants: []Invariant{
			invPairsPositive(), invUnitWeights(), invM0Real(), invIsoBinSymmetry(),
		},
	}
}

// anisoLOSRadial exercises the paper's key step (Fig. 2): per-primary
// line-of-sight rotation for a wide-angle geometry.
func anisoLOSRadial() *Scenario {
	const name = "aniso-losradial"
	cfg := core.Config{
		RMax: 40, NBins: 4, LMax: 4,
		LOS: core.LOSRadial, Observer: geom.Vec3{X: -400, Y: -500, Z: -600},
		SelfCount: true,
	}
	return &Scenario{
		Name:       name,
		Desc:       "anisotropic 3PCF with per-primary radial line of sight (Fig. 2)",
		GoldenN:    1500,
		GoldenSeed: 102,
		MinN:       300,
		Run: func(ctx context.Context, spec exec.Spec, n int, seed int64) (*Outcome, error) {
			n = clampN(n, 300)
			cat := catalog.Clustered(n, 240, catalog.DefaultClusterParams(), seed)
			o, _, err := runOne(ctx, spec, name, cat, cfg, n, seed)
			return o, err
		},
		Invariants: []Invariant{
			invPairsPositive(), invUnitWeights(), invM0Real(),
			invIsoBinSymmetry(), invAnisoSignal(),
		},
	}
}

// periodicAnisoRSD distorts satellite offsets along z (ZStretch < 1,
// Kaiser-like infall) under the plane-parallel line of sight — the
// redshift-space configuration whose quadrupole the anisotropic channels
// exist to capture.
func periodicAnisoRSD() *Scenario {
	const name = "periodic-aniso-rsd"
	cfg := core.Config{
		RMax: 40, NBins: 4, LMax: 4,
		LOS: core.LOSPlaneParallel, SelfCount: true,
	}
	return &Scenario{
		Name:       name,
		Desc:       "plane-parallel anisotropic 3PCF of a z-compressed (RSD-like) box",
		GoldenN:    1500,
		GoldenSeed: 103,
		MinN:       300,
		Run: func(ctx context.Context, spec exec.Spec, n int, seed int64) (*Outcome, error) {
			n = clampN(n, 300)
			p := catalog.DefaultClusterParams()
			p.ZStretch = 0.45
			cat := catalog.Clustered(n, 240, p, seed)
			o, _, err := runOne(ctx, spec, name, cat, cfg, n, seed)
			return o, err
		},
		Invariants: []Invariant{
			invPairsPositive(), invUnitWeights(), invM0Real(),
			invIsoBinSymmetry(), invAnisoSignal(),
		},
	}
}

// surveyEstimator is the Sec. 6.1 data+randoms workload: a slab-masked
// clustered catalog, 4x masked uniform randoms, D-R and randoms runs
// through the backend, mixing-matrix edge correction.
func surveyEstimator() *Scenario {
	const name = "survey-estimator"
	cfg := core.Config{
		RMax: 40, NBins: 4, LMax: 4,
		LOS: core.LOSPlaneParallel, SelfCount: false, IsotropicOnly: true,
	}
	// slab keeps galaxies with |z - L/2| < L/4 as an open-boundary catalog:
	// the mask whose window multipoles the correction must undo.
	slab := func(c *catalog.Catalog, l float64) *catalog.Catalog {
		out := &catalog.Catalog{}
		for _, g := range c.Galaxies {
			if math.Abs(g.Pos.Z-float64(l/2)) < l/4 {
				out.Galaxies = append(out.Galaxies, g)
			}
		}
		return out
	}
	return &Scenario{
		Name:       name,
		Desc:       "data+randoms estimator with mixing-matrix edge correction (Sec. 6.1)",
		GoldenN:    1200,
		GoldenSeed: 104,
		MinN:       400,
		Run: func(ctx context.Context, spec exec.Spec, n int, seed int64) (*Outcome, error) {
			n = clampN(n, 400)
			const l = 240
			data := slab(catalog.Clustered(n, l, catalog.DefaultClusterParams(), seed), l)
			randoms := slab(catalog.Uniform(4*n, l, seed+1), l)
			sv, err := RunSurveyEstimator(ctx, exec.Request{Config: cfg, Backend: spec}, data, randoms)
			if err != nil {
				return nil, err
			}
			return &Outcome{
				Scenario:  name,
				N:         n,
				Seed:      seed,
				Elapsed:   sv.DMR.Elapsed + sv.Randoms.Elapsed,
				Result:    sv.DMR.Result,
				Cross:     sv.Randoms.Result,
				Corrected: sv.Corrected,
				Survey:    sv,
			}, nil
		},
		Invariants: []Invariant{
			invPairsPositive(),
			{
				Name: "window-monopole-unit",
				Desc: "f_0 == 1 exactly in every populated bin pair",
				Check: func(o *Outcome) error {
					for i, f0 := range o.Corrected.WindowF[0] {
						if f0 != 1 && f0 != 0 {
							return fmt.Errorf("f_0[%d] = %v, want exactly 1 (or 0 for empty bins)", i, f0)
						}
					}
					return nil
				},
			},
			{
				Name: "window-anisotropic",
				Desc: "the slab mask produces a clearly nonzero f_2",
				Check: func(o *Outcome) error {
					worst := 0.0
					for _, f2 := range o.Corrected.WindowF[2] {
						if v := math.Abs(f2); v > worst {
							worst = v
						}
					}
					if worst < 0.02 {
						return fmt.Errorf("max |f_2| = %g, want > 0.02 for a slab window", worst)
					}
					return nil
				},
			},
			{
				Name: "mixing-condition-sane",
				Desc: "mixing matrices stay well-conditioned",
				Check: func(o *Outcome) error {
					c := o.Corrected.Condition
					if math.IsNaN(c) || math.IsInf(c, 0) || c < 1 || c > 1e6 {
						return fmt.Errorf("condition estimate %v outside [1, 1e6]", c)
					}
					return nil
				},
			},
			{
				Name: "corrected-finite",
				Desc: "every corrected multipole is finite",
				Check: func(o *Outcome) error {
					for l, row := range o.Corrected.Zeta {
						for i, v := range row {
							if math.IsNaN(v) || math.IsInf(v, 0) {
								return fmt.Errorf("zeta_%d[%d] = %v", l, i, v)
							}
						}
					}
					return nil
				},
			},
		},
	}
}

// jackknifeCovariance is the Sec. 6.1 resampling workload: delete-one
// spatial jackknife over partition regions, covariance from the samples.
func jackknifeCovariance() *Scenario {
	const name = "jackknife-covariance"
	const regions = 8
	cfg := core.Config{
		RMax: 30, NBins: 4, LMax: 2,
		LOS: core.LOSPlaneParallel, SelfCount: false, IsotropicOnly: true,
	}
	return &Scenario{
		Name:       name,
		Desc:       "delete-one spatial jackknife covariance over partition regions (Sec. 6.1)",
		GoldenN:    1600,
		GoldenSeed: 105,
		MinN:       400,
		Run: func(ctx context.Context, spec exec.Spec, n int, seed int64) (*Outcome, error) {
			n = clampN(n, 400)
			cat := catalog.Uniform(n, 200, seed)
			jk, err := RunJackknife(ctx, exec.Request{Config: cfg, Backend: spec}, cat, regions)
			if err != nil {
				return nil, err
			}
			elapsed := jk.FullRun.Elapsed
			for _, r := range jk.LOORuns {
				elapsed += r.Elapsed
			}
			return &Outcome{
				Scenario:  name,
				N:         n,
				Seed:      seed,
				Elapsed:   elapsed,
				Result:    jk.FullRun.Result,
				Jackknife: jk,
			}, nil
		},
		Invariants: []Invariant{
			invPairsPositive(), invUnitWeights(),
			{
				Name: "regions-partition-exactly",
				Desc: "regions cover the catalog with no drops or duplicates",
				Check: func(o *Outcome) error {
					// RunJackknife fails on duplicates/orphans; re-check
					// the counts it reported.
					total := 0
					for p, c := range o.Jackknife.RegionCounts {
						if c == 0 {
							return fmt.Errorf("region %d is empty", p)
						}
						total += c
					}
					if total != o.Result.NPrimaries {
						return fmt.Errorf("region counts sum to %d, catalog has %d", total, o.Result.NPrimaries)
					}
					return nil
				},
			},
			{
				Name: "cov-symmetric",
				Desc: "jackknife covariance is symmetric",
				Check: func(o *Outcome) error {
					cov := o.Jackknife.Cov
					scale := 0.0
					for _, v := range cov.Data {
						if a := math.Abs(v); a > scale {
							scale = a
						}
					}
					if e := cov.SymmetryError(); e > 1e-14*scale {
						return fmt.Errorf("symmetry error %g exceeds %g", e, 1e-14*scale)
					}
					return nil
				},
			},
			{
				Name: "cov-psd",
				Desc: "jackknife covariance is positive semi-definite",
				Check: func(o *Outcome) error {
					if !o.Jackknife.Cov.IsPSD(1e-10) {
						return fmt.Errorf("covariance is not PSD")
					}
					return nil
				},
			},
			{
				Name: "loo-mean-consistent",
				Desc: "leave-one-out means track the full-sample statistic",
				Check: func(o *Outcome) error {
					// Delete-one samples carry a boundary-truncation bias
					// (secondaries near the hole lose neighbors), so the
					// match is to ~20%, not to jackknife-sigma precision.
					jk := o.Jackknife
					for i := range jk.Full {
						if diff := math.Abs(jk.Mean[i] - jk.Full[i]); diff > float64(0.2*math.Abs(jk.Full[i]))+1e-12 {
							return fmt.Errorf("bin %d: LOO mean %g vs full %g", i, jk.Mean[i], jk.Full[i])
						}
					}
					return nil
				},
			},
		},
	}
}

// twopcfCrossCheck validates the 3PCF engine's pair accounting against the
// independent 2PCF pair counter at matched binning: both use the ordered
// pair convention, so the counts must agree exactly.
func twopcfCrossCheck() *Scenario {
	const name = "twopcf-crosscheck"
	cfg := core.Config{
		RMax: 40, NBins: 4, LMax: 2,
		LOS: core.LOSPlaneParallel, SelfCount: true, IsotropicOnly: true,
	}
	return &Scenario{
		Name:       name,
		Desc:       "engine pair count == independent 2PCF pair count at matched binning",
		GoldenN:    1500,
		GoldenSeed: 106,
		MinN:       300,
		Run: func(ctx context.Context, spec exec.Spec, n int, seed int64) (*Outcome, error) {
			n = clampN(n, 300)
			cat := catalog.Clustered(n, 240, catalog.DefaultClusterParams(), seed)
			o, _, err := runOne(ctx, spec, name, cat, cfg, n, seed)
			if err != nil {
				return nil, err
			}
			pc, err := twopcf.Count(cat, twopcf.Config{
				RMin: cfg.RMin, RMax: cfg.RMax, NBins: cfg.NBins,
				LMax: 2,
			})
			if err != nil {
				return nil, err
			}
			o.TwoPCF = pc
			return o, nil
		},
		Invariants: []Invariant{
			invPairsPositive(), invUnitWeights(),
			{
				Name: "pair-count-match",
				Desc: "engine Pairs == twopcf NPairs exactly",
				Check: func(o *Outcome) error {
					if o.Result.Pairs != o.TwoPCF.NPairs {
						return fmt.Errorf("engine %d pairs, twopcf %d", o.Result.Pairs, o.TwoPCF.NPairs)
					}
					return nil
				},
			},
			{
				Name: "monopole-count-match",
				Desc: "sum of monopole pair weights == NPairs (unit weights)",
				Check: func(o *Outcome) error {
					sum := 0.0
					for _, v := range o.TwoPCF.Counts[0] {
						sum += v
					}
					want := float64(o.TwoPCF.NPairs)
					if math.Abs(sum-want) > 1e-9*want {
						return fmt.Errorf("monopole weight sum %v vs %v pairs", sum, want)
					}
					return nil
				},
			},
			{
				Name: "monopole-populated",
				Desc: "every radial bin holds pairs",
				Check: func(o *Outcome) error {
					for b, v := range o.TwoPCF.Counts[0] {
						if v <= 0 {
							return fmt.Errorf("bin %d monopole count %v", b, v)
						}
					}
					return nil
				},
			},
		},
	}
}

// griddedVsExact pins the Sec. 6.3 gridded estimator: on a catalog snapped
// to mesh-cell centers, NGP deposition is lossless, so the gridded result
// must match the exact engine to rounding.
func griddedVsExact() *Scenario {
	const name = "gridded-vs-exact"
	const meshN = 32
	const boxL = 200.0
	// SelfCount must stay off: aggregation changes sum w^2 per cell
	// (m^2 vs m), so the self-pair correction would differ by design.
	cfg := core.Config{
		RMax: 40, NBins: 5, LMax: 3,
		LOS: core.LOSPlaneParallel, SelfCount: false,
	}
	return &Scenario{
		Name:       name,
		Desc:       "gridded NGP estimator matches the exact engine on a cell-snapped catalog (Sec. 6.3)",
		GoldenN:    2000,
		GoldenSeed: 107,
		MinN:       400,
		Run: func(ctx context.Context, spec exec.Spec, n int, seed int64) (*Outcome, error) {
			n = clampN(n, 400)
			base := catalog.Uniform(n, boxL, seed)
			// Snap to the same cell centers mesh.tracers emits, so the
			// mesh is an exact re-encoding of the catalog.
			const cell = boxL / meshN
			snapped := &catalog.Catalog{Box: base.Box, Galaxies: make([]catalog.Galaxy, len(base.Galaxies))}
			for i, g := range base.Galaxies {
				snapped.Galaxies[i] = catalog.Galaxy{
					Pos: geom.Vec3{
						X: (math.Floor(g.Pos.X/cell) + 0.5) * cell,
						Y: (math.Floor(g.Pos.Y/cell) + 0.5) * cell,
						Z: (math.Floor(g.Pos.Z/cell) + 0.5) * cell,
					},
					Weight: g.Weight,
				}
			}
			o, _, err := runOne(ctx, spec, name, snapped, cfg, n, seed)
			if err != nil {
				return nil, err
			}
			gres, _, err := griddedCompute(snapped, meshN, cfg)
			if err != nil {
				return nil, err
			}
			o.Cross = gres
			return o, nil
		},
		Invariants: []Invariant{
			invPairsPositive(),
			{
				Name: "gridded-matches-exact",
				Desc: "gridded and exact multipoles agree to rounding",
				Check: func(o *Outcome) error {
					scale := o.Result.MaxAbs()
					if scale == 0 {
						return fmt.Errorf("empty result")
					}
					if d := o.Cross.MaxAbsDiff(o.Result); d > 1e-9*scale {
						return fmt.Errorf("max diff %g exceeds %g", d, 1e-9*scale)
					}
					return nil
				},
			},
			{
				Name: "weight-conserved",
				Desc: "mesh deposition conserves total weight",
				Check: func(o *Outcome) error {
					a, b := o.Cross.SumWeight, o.Result.SumWeight
					if math.Abs(a-b) > 1e-6*math.Abs(b) {
						return fmt.Errorf("gridded SumWeight %v vs exact %v", a, b)
					}
					return nil
				},
			},
			{
				Name: "pairs-compressed",
				Desc: "aggregation never increases kernel pair count",
				Check: func(o *Outcome) error {
					if o.Cross.Pairs > o.Result.Pairs {
						return fmt.Errorf("gridded %d pairs > exact %d", o.Cross.Pairs, o.Result.Pairs)
					}
					return nil
				},
			},
		},
	}
}
