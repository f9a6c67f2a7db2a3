package main

// The experiment drivers. The multi-node experiments run through the sharded
// backend, one part of the paper's k-d split per simulated rank, and read
// each rank's node-local computation from its unit statistics: after the
// halo exchange the computation is embarrassingly parallel (Sec. 3.2), so a
// rank's isolated wall-clock equals its dedicated-node time, and the
// simulated cluster's time-to-solution is the maximum over ranks. This keeps
// the scaling figures honest on hosts with any core count. Every other run
// goes through facadeRun.

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"galactos"
	"galactos/internal/catalog"
	"galactos/internal/core"
	"galactos/internal/perfmodel"
)

// threadPoint is one measurement of the Fig. 5 thread-scaling sweep.
type threadPoint struct {
	Workers int
	Elapsed time.Duration
	Speedup float64 // relative to the first point
}

// threadScaling measures time-to-solution for each worker count on the same
// catalog (Fig. 5: 10,000 galaxies, 1..272 threads on Xeon Phi).
func threadScaling(ctx context.Context, cat *catalog.Catalog, cfg core.Config, workerCounts []int) ([]threadPoint, error) {
	points := make([]threadPoint, 0, len(workerCounts))
	for _, w := range workerCounts {
		c := cfg
		c.Workers = w
		run, err := facadeRun(ctx, cat, c)
		if err != nil {
			return nil, err
		}
		p := threadPoint{Workers: w, Elapsed: run.Elapsed, Speedup: 1}
		if len(points) > 0 {
			p.Speedup = float64(points[0].Elapsed) / float64(run.Elapsed)
		}
		points = append(points, p)
	}
	return points, nil
}

// scalePoint is one row of a weak- or strong-scaling measurement
// (Figs. 6/7).
type scalePoint struct {
	Ranks    int
	Galaxies int
	BoxL     float64
	// NodeTime is the simulated cluster time-to-solution: the maximum
	// isolated per-rank compute time.
	NodeTime time.Duration
	// PairImbalance is max/mean pairs per rank (the paper's load-balance
	// metric: <= 1.10 weak, up to 1.60 strong).
	PairImbalance float64
	// PrimaryImbalance is max/mean primaries per rank (balanced to 0.1% in
	// the paper).
	PrimaryImbalance float64
	TotalPairs       uint64
}

// rankScaling measures the simulated cluster at each rank count on the
// catalog catFor returns for it: a density-matched catalog per count (fixed
// galaxies per rank, growing box — Table 1's construction) for weak scaling
// (Fig. 6), one fixed catalog for strong scaling (Fig. 7).
func rankScaling(ctx context.Context, rankCounts []int, cfg core.Config, catFor func(ranks int) *catalog.Catalog) ([]scalePoint, error) {
	out := make([]scalePoint, 0, len(rankCounts))
	for _, nr := range rankCounts {
		pt, _, err := scalingPoint(ctx, catFor(nr), nr, cfg)
		if err != nil {
			return nil, fmt.Errorf("%d ranks: %w", nr, err)
		}
		out = append(out, pt)
	}
	return out, nil
}

// scalingPoint runs cat on the sharded backend with one part per simulated
// rank (owned galaxies plus halo copies within RMax, computed one at a time)
// and reads the ranks' node-local times and work from the run's units. It
// returns the scaling metrics and the ranks' merged result.
func scalingPoint(ctx context.Context, cat *catalog.Catalog, nranks int, cfg core.Config) (scalePoint, *core.Result, error) {
	run, err := galactos.Run(ctx, galactos.Request{
		Catalog: cat,
		Config:  cfg,
		Backend: galactos.BackendSpec{Name: "sharded", Shards: nranks},
	})
	if err != nil {
		return scalePoint{}, nil, err
	}
	pt := scalePoint{Ranks: nranks, BoxL: cat.Box.L}
	var maxPairs uint64
	var maxPrim int
	for _, u := range run.Units {
		pt.NodeTime = max(pt.NodeTime, u.Elapsed)
		maxPairs = max(maxPairs, u.Pairs)
		maxPrim = max(maxPrim, u.NOwned)
	}
	n := float64(nranks)
	pt.TotalPairs, pt.Galaxies = run.Result.Pairs, run.Result.NPrimaries
	if pt.TotalPairs > 0 {
		pt.PairImbalance = float64(maxPairs) / (float64(pt.TotalPairs) / n)
	}
	if pt.Galaxies > 0 {
		pt.PrimaryImbalance = float64(maxPrim) / (float64(pt.Galaxies) / n)
	}
	return pt, run.Result, nil
}

// breakdownFractions converts a timing breakdown into the Fig. 4 pie
// fractions of summed phase time (worker phases plus the tree build). It is
// the suite's one definition of a phase's share: WorkerTotal also carries
// scheduler and commit waits, pure wall clock on an oversubscribed host,
// which would dilute every fraction.
func breakdownFractions(b core.Breakdown) map[string]float64 {
	total := float64(b.TreeBuild + b.Gather + b.Consume + b.SelfCount + b.AlmZeta)
	if total == 0 {
		return nil
	}
	return map[string]float64{
		"tree build": float64(b.TreeBuild) / total,
		"gather":     float64(b.Gather) / total,
		"consume":    float64(b.Consume) / total,
		"self count": float64(b.SelfCount) / total,
		"alm+zeta":   float64(b.AlmZeta) / total,
	}
}

// se15Comparison measures the isotropic-only mode (the Slepian–Eisenstein
// 2015 baseline algorithm, Sec. 2.2/2.3) against the full anisotropic mode
// on the same catalog.
func se15Comparison(ctx context.Context, cat *catalog.Catalog, cfg core.Config) (iso, aniso time.Duration, err error) {
	c := cfg
	c.IsotropicOnly = true
	isoRun, err := facadeRun(ctx, cat, c)
	if err != nil {
		return 0, 0, err
	}
	anisoRun, err := facadeRun(ctx, cat, cfg)
	if err != nil {
		return 0, 0, err
	}
	return isoRun.Elapsed, anisoRun.Elapsed, nil
}

// calibrateHost measures this host's pair throughput for the perfmodel
// extrapolations: the pair rate of the kernel and neighbour search (the
// phases the paper's 609 FLOPs per pair cover, as breakdownFractions shares
// them), the tree build cost, and the paper's weak-scaling pair imbalance.
func calibrateHost(ctx context.Context, cat *catalog.Catalog, cfg core.Config) (perfmodel.Calibration, error) {
	cfg.SelfCount = false // match the paper's raw kernel cost model
	run, err := facadeRun(ctx, cat, cfg)
	if err != nil {
		return perfmodel.Calibration{}, err
	}
	res := run.Result
	fr := breakdownFractions(res.Timings)
	kernelFrac := fr["consume"] + fr["gather"]
	if kernelFrac <= 0 || kernelFrac > 1 {
		kernelFrac = 1
	}
	cal := perfmodel.Calibration{
		PairsPerSec: float64(res.Pairs) / (run.Elapsed.Seconds() * kernelFrac),
		Imbalance:   1.10, // the paper's observed weak-scaling imbalance bound
	}
	if cat.Len() > 0 {
		cal.TreeBuildPerGalaxy = res.Timings.TreeBuild / time.Duration(cat.Len())
	}
	return cal, nil
}

// heapSampler starts a goroutine polling runtime.MemStats.HeapInuse and
// returns a stop function yielding the observed peak — the measurement
// behind the `sharded` experiment's memory comparison. It forces a
// collection first so the peak reflects the measured phase.
func heapSampler() func() uint64 {
	runtime.GC()
	quit, peak := make(chan struct{}), make(chan uint64)
	go func() {
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		var ms runtime.MemStats
		var p uint64
		for {
			select {
			case <-quit:
				peak <- p
				return
			case <-t.C:
				runtime.ReadMemStats(&ms)
				p = max(p, ms.HeapInuse)
			}
		}
	}()
	return func() uint64 {
		close(quit)
		return <-peak
	}
}
