package galactos_test

import (
	"context"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"

	"galactos"
)

// Every computation goes through Run: generate a mock catalog, compute its
// anisotropic 3PCF, and read the isotropic and anisotropic multipoles.
func ExampleRun() {
	// A BOSS-like clustered mock in a 200 Mpc/h periodic box. The only
	// required input is the 3-D positions (Sec. 1.3 of the paper); weights
	// default to 1.
	cat := galactos.GenerateClustered(2000, 200, galactos.DefaultClusterParams(), 1)
	fmt.Printf("catalog: %d galaxies, box %.0f Mpc/h, density %.3g (Mpc/h)^-3\n",
		cat.Len(), cat.Box.L, cat.Density())

	// The paper runs Rmax = 200 Mpc/h with 20 bins and l_max = 10; here Rmax
	// is scaled to the box. SelfCount subtracts the secondary-paired-with-
	// itself term so diagonal bins are exact triplet counts; off, the run is
	// the raw kernel.
	cfg := galactos.DefaultConfig()
	cfg.RMax = 60
	cfg.NBins = 6
	cfg.LMax = 5
	cfg.SelfCount = false

	// The same Request, serialized as JSON, is a galactosd job.
	run, err := galactos.Run(context.Background(), galactos.Request{Catalog: cat, Config: cfg})
	if err != nil {
		log.Fatal(err)
	}
	res := run.Result
	fmt.Printf("%d primaries, %d pairs\n", res.NPrimaries, res.Pairs)

	// The isotropic multipoles zeta_l(r1, r2) (Slepian–Eisenstein basis).
	fmt.Println("zeta_0(r, r):")
	for b := 0; b < cfg.NBins; b++ {
		fmt.Printf("  r = %4.1f  %.4g\n", res.Bins.Center(b), res.IsoZeta(0, b, b))
	}
	// One anisotropic channel zeta^m_{l1 l2}(r1, r2); m = 0 channels are real.
	fmt.Printf("zeta^0_02(r2, r2) = %.3e\n", real(res.ZetaM(0, 2, 0, 2, 2)))
	// Output:
	// catalog: 2000 galaxies, box 200 Mpc/h, density 0.00025 (Mpc/h)^-3
	// 2000 primaries, 455572 pairs
	// zeta_0(r, r):
	//   r =  5.0  2.462e+04
	//   r = 15.0  2.858e+05
	//   r = 25.0  9.809e+05
	//   r = 35.0  3.087e+06
	//   r = 45.0  8.178e+06
	//   r = 55.0  1.805e+07
	// zeta^0_02(r2, r2) = -3.553e+03
}

// The sharded backend streams a catalog file through halo-padded k-d parts,
// one resident at a time, and checkpoints each part's partial result: the
// architectural move that let the paper reach 2 billion galaxies (Sec. 3.2).
// Rerunning into a checkpoint directory that lost some checkpoints resumes
// from the rest and reproduces the uninterrupted answer bit for bit.
func ExampleRun_sharded() {
	dir, err := os.MkdirTemp("", "galactos-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "catalog.glxc")
	cat := galactos.GenerateClustered(4000, 400, galactos.DefaultClusterParams(), 1)
	if err := galactos.SaveCatalog(path, cat); err != nil {
		log.Fatal(err)
	}

	cfg := galactos.DefaultConfig()
	cfg.RMax = 30
	cfg.NBins = 6
	cfg.LMax = 5
	cfg.SelfCount = false
	ctx := context.Background()
	single, err := galactos.Run(ctx, galactos.Request{Catalog: cat, Config: cfg})
	if err != nil {
		log.Fatal(err)
	}

	const shards = 8
	ckpt := filepath.Join(dir, "ckpt")
	req := galactos.Request{
		Source: galactos.NewFileSource(path),
		Config: cfg,
		Backend: galactos.BackendSpec{
			Name: "sharded", Shards: shards, CheckpointDir: ckpt,
			Keep: true, // keep the checkpoints so the run can "resume" below
		},
	}
	sharded, err := galactos.Run(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	owned := 0
	for _, u := range sharded.Units {
		owned += u.NOwned
	}
	fmt.Printf("single shot: %d pairs\n", single.Result.Pairs)
	fmt.Printf("%d shards owning %d galaxies: %d pairs, equal to single shot within 1e-9: %v\n",
		len(sharded.Units), owned, sharded.Result.Pairs,
		sharded.Result.MaxAbsDiff(single.Result) <= 1e-9*single.Result.MaxAbs())

	// Simulate a killed run: drop the last three checkpoints, then rerun.
	// The directory's manifest names this run, so shards with a surviving
	// checkpoint are loaded, the rest recomputed.
	for _, u := range sharded.Units[shards-3:] {
		os.Remove(filepath.Join(ckpt, fmt.Sprintf("shard-%04d-of-%04d.gres", u.Unit, shards)))
	}
	req.Backend.Keep = false
	resumed, err := galactos.Run(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	n := 0
	for _, u := range resumed.Units {
		if u.Resumed {
			n++
		}
	}
	fmt.Printf("resumed %d shards, recomputed %d; identical to the uninterrupted run: %v\n",
		n, len(resumed.Units)-n, resumed.Result.MaxAbsDiff(sharded.Result) == 0)
	// Output:
	// single shot: 50340 pairs
	// 8 shards owning 4000 galaxies: 50340 pairs, equal to single shot within 1e-9: true
	// resumed 5 shards, recomputed 3; identical to the uninterrupted run: true
}

// Redshift-space distortions, the paper's scientific motivation (Sec.
// 1.1–1.2): peculiar velocities stretch structures along the line of sight.
// The same clustered universe is built isotropic and z-stretched. The
// l1 != l2 channels carry the direction of the distortion, which the
// isotropic multipoles cannot see (Sec. 2.2): they only change amplitude.
func ExampleRun_rsd() {
	const n, boxL = 15000, 250.0
	params := galactos.DefaultClusterParams()
	iso := galactos.GenerateClustered(n, boxL, params, 3)
	params.ZStretch = 2.5 // finger-of-god-like stretching along z
	rsd := galactos.GenerateClustered(n, boxL, params, 3)

	cfg := galactos.DefaultConfig()
	cfg.RMax = 50
	cfg.NBins = 5
	cfg.LMax = 4
	cfg.SelfCount = false
	cfg.LOS = galactos.LOSPlaneParallel // the simulation-box convention
	compute := func(cat *galactos.Catalog) *galactos.Result {
		run, err := galactos.Run(context.Background(), galactos.Request{Catalog: cat, Config: cfg})
		if err != nil {
			log.Fatal(err)
		}
		return run.Result
	}
	resI, resR := compute(iso), compute(rsd)

	// The monopole-quadrupole cross channel relative to the monopole: zero
	// in expectation for an isotropic field.
	fmt.Println("zeta^0_02(r, r) / zeta^0_00(r, r):")
	fmt.Println("  r     isotropic  distorted")
	for b := 0; b < cfg.NBins; b++ {
		qI := real(resI.ZetaM(0, 2, 0, b, b)) / real(resI.ZetaM(0, 0, 0, b, b))
		qR := real(resR.ZetaM(0, 2, 0, b, b)) / real(resR.ZetaM(0, 0, 0, b, b))
		fmt.Printf("  %4.1f  %+.3g  %+.3g\n", resI.Bins.Center(b), qI, qR)
	}
	fI, fR := crossFraction(resI), crossFraction(resR)
	fmt.Printf("cross-multipole power fraction: isotropic %.3g, distorted %.3g (%.3gx)\n", fI, fR, fR/fI)

	var drift float64
	for b := 0; b < cfg.NBins; b++ {
		zi, zr := resI.IsoZeta(0, b, b), resR.IsoZeta(0, b, b)
		drift += math.Abs(zr-zi) / math.Abs(zi) / float64(cfg.NBins)
	}
	fmt.Printf("mean |change| of the isotropic monopole: %.2g%%\n", drift*100)
	// Output:
	// zeta^0_02(r, r) / zeta^0_00(r, r):
	//   r     isotropic  distorted
	//    5.0  -0.00771  +0.0225
	//   15.0  -0.00195  +0.0361
	//   25.0  -0.00522  +0.0196
	//   35.0  +0.000313  +0.00598
	//   45.0  +0.00186  +0.00137
	// cross-multipole power fraction: isotropic 8.92e-06, distorted 7.86e-05 (8.82x)
	// mean |change| of the isotropic monopole: 9%
}

// crossFraction is the share of anisotropic power |zeta^m_{l1 l2}|^2 in the
// l1 != l2 channels.
func crossFraction(res *galactos.Result) float64 {
	var cross, diag float64
	for _, c := range res.Combos.Combos {
		for b1 := 0; b1 < res.Bins.N; b1++ {
			for b2 := 0; b2 < res.Bins.N; b2++ {
				v := res.ZetaM(c.L1, c.L2, c.M, b1, b2)
				p := real(v)*real(v) + imag(v)*imag(v)
				if c.L1 == c.L2 {
					diag += p
				} else {
					cross += p
				}
			}
		}
	}
	return cross / (cross + diag)
}

// Survey-geometry correction (Sec. 6.1): a masked survey mixes the true
// multipoles through the window multipoles f_l = R_l/R_0 of its randoms, and
// inverting the Wigner-3j mixing matrix undoes it. The registry's
// survey-estimator scenario measures a slab cut out of a clustered box (its
// invariants checked); RunSurveyEstimator measures the same universe whole.
func ExampleRunSurveyEstimator() {
	const n, seed, boxL = 1200, 11, 240.0
	ctx := context.Background()
	masked, err := galactos.RunScenario(ctx, galactos.BackendSpec{}, "survey-estimator", n, seed)
	if err != nil {
		log.Fatal(err)
	}
	survey := masked.Corrected
	fmt.Printf("slab survey: n=%d, %d D-R pairs, invariants ok\n", masked.N, masked.Result.Pairs)

	// The scenario's config, and its clustered box without the mask.
	cfg := galactos.DefaultConfig()
	cfg.RMax = 40
	cfg.NBins = 4
	cfg.LMax = 4
	cfg.SelfCount = false
	cfg.IsotropicOnly = true
	full := galactos.GenerateClustered(n, boxL, galactos.DefaultClusterParams(), seed)
	randoms := galactos.GenerateUniform(2*n, boxL, 13)
	whole, err := galactos.RunSurveyEstimator(ctx, galactos.Request{Config: cfg}, full, randoms)
	if err != nil {
		log.Fatal(err)
	}
	truth := whole.Corrected

	// Off-diagonal bins only: with SelfCount off, the (r, r) bins carry the
	// secondary-paired-with-itself shot term, which depends on the randoms'
	// density and is the same at every l.
	nb := cfg.NBins
	fmt.Println("window multipoles f_l(r1 = 5, r2 = 15, 25, 35):")
	for l := 1; l <= 2; l++ {
		fmt.Printf("  l=%d survey  ", l)
		for b2 := 1; b2 < nb; b2++ {
			fmt.Printf(" %+.1e", survey.WindowF[l][b2])
		}
		fmt.Printf("\n  l=%d maskless", l)
		for b2 := 1; b2 < nb; b2++ {
			fmt.Printf(" %+.1e", truth.WindowF[l][b2])
		}
		fmt.Println()
	}
	fmt.Printf("mixing-matrix condition: %.4g\n", survey.Condition)

	fmt.Println("corrected zeta-hat_0(r1 = 5, r2):")
	fmt.Println("  r2    maskless   survey")
	for b2 := 1; b2 < nb; b2++ {
		fmt.Printf("  %4.1f  %.4g  %.4g\n", cfg.RMax*(float64(b2)+0.5)/float64(nb),
			truth.Zeta[0][b2], survey.Zeta[0][b2])
	}
	rel := math.Abs(survey.Zeta[0][1]-truth.Zeta[0][1]) / math.Abs(truth.Zeta[0][1])
	fmt.Printf("strongest-signal bin (5, 15): %.0f%% apart\n", rel*100)
	// Output:
	// slab survey: n=1200, 273606 D-R pairs, invariants ok
	// window multipoles f_l(r1 = 5, r2 = 15, 25, 35):
	//   l=1 survey   +4.2e-03 +1.2e-02 +1.2e-02
	//   l=1 maskless -4.0e-04 +7.0e-06 -4.7e-04
	//   l=2 survey   -2.1e-03 +2.0e-03 +3.0e-03
	//   l=2 maskless -5.6e-03 -5.1e-03 -7.6e-03
	// mixing-matrix condition: 1.115
	// corrected zeta-hat_0(r1 = 5, r2):
	//   r2    maskless   survey
	//   15.0  7.828  7.715
	//   25.0  0.2047  0.7171
	//   35.0  0.06846  0.07698
	// strongest-signal bin (5, 15): 1% apart
}

// Jackknife covariance (Sec. 6.1): "partitioning the survey spatially ...
// amounts to jack-knifing". The catalog is split into regions with the
// partitioner the sharded backend uses, the full sample and every
// leave-one-out catalog run as stages, and the delete-one statistics feed
// the covariance whose inverse weights a model fit.
func ExampleRunJackknifeResampling() {
	cfg := galactos.DefaultConfig()
	cfg.RMax = 30
	cfg.NBins = 4
	cfg.LMax = 2
	cfg.SelfCount = false
	cfg.IsotropicOnly = true
	cat := galactos.GenerateUniform(1600, 200, 5)
	jk, err := galactos.RunJackknifeResampling(context.Background(), galactos.Request{Config: cfg}, cat, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d regions, occupancies %v\n", jk.Regions, jk.RegionCounts)

	fmt.Println("zeta_0(b, b) / sum w:")
	fmt.Println("  bin  full       LOO mean")
	for b := range jk.Full {
		fmt.Printf("  %d    %.4g  %.4g\n", b, jk.Full[b], jk.Mean[b])
	}

	cov := jk.Cov
	fmt.Println("covariance:")
	for i := 0; i < cov.N; i++ {
		for j := 0; j < cov.N; j++ {
			fmt.Printf(" %10.3e", cov.At(i, j))
		}
		fmt.Println()
	}
	corr, err := cov.CorrelationMatrix()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("correlation:")
	for i := 0; i < corr.N; i++ {
		for j := 0; j < corr.N; j++ {
			fmt.Printf(" %+.2f", corr.At(i, j))
		}
		fmt.Println()
	}
	fmt.Printf("condition estimate: %.3g\n", cov.ConditionEstimate())

	inv, err := cov.Inverse()
	if err != nil {
		log.Fatal(err)
	}
	prod, err := cov.Mul(inv)
	if err != nil {
		log.Fatal(err)
	}
	worst := prod.MaxAbsOffDiagonal()
	for i := 0; i < prod.N; i++ {
		worst = math.Max(worst, math.Abs(prod.At(i, i)-1))
	}
	fmt.Printf("C C^-1 = I within 1e-9: %v\n", worst < 1e-9)
	// Output:
	// 8 regions, occupancies [200 200 200 200 200 200 200 200]
	// zeta_0(b, b) / sum w:
	//   bin  full       LOO mean
	//   0    0.4413  0.4366
	//   1    8.61  8.329
	//   2    52.28  49.15
	//   3    184.5  168.3
	// covariance:
	//   1.375e-03  8.104e-03  3.593e-02 -3.388e-02
	//   8.104e-03  2.901e-01  1.883e+00  6.485e+00
	//   3.593e-02  1.883e+00  1.820e+01  6.141e+01
	//  -3.388e-02  6.485e+00  6.141e+01  2.788e+02
	// correlation:
	//  +1.00 +0.41 +0.23 -0.05
	//  +0.41 +1.00 +0.82 +0.72
	//  +0.23 +0.82 +1.00 +0.86
	//  -0.05 +0.72 +0.86 +1.00
	// condition estimate: 230
	// C C^-1 = I within 1e-9: true
}
