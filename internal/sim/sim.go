// Package sim contains the experiment drivers that regenerate the paper's
// figures and tables (see DESIGN.md's experiment index). The multi-node
// experiments run the real k-d split + halo selection of package partition
// (one part per simulated rank, the decomposition the sharded backend
// computes on), then measure each rank's node-local computation in
// isolation: after the halo exchange the computation is embarrassingly
// parallel (Sec. 3.2), so a rank's isolated wall-clock equals its
// dedicated-node time, and the simulated cluster's time-to-solution is the
// maximum over ranks. This keeps the scaling figures honest on hosts with
// any core count, including single-core machines.
package sim

import (
	"fmt"
	"runtime"
	"time"

	"galactos/internal/catalog"
	"galactos/internal/core"
	"galactos/internal/partition"
	"galactos/internal/perfmodel"
)

// ThreadPoint is one measurement of the Fig. 5 thread-scaling sweep.
type ThreadPoint struct {
	Workers int
	Elapsed time.Duration
	Speedup float64 // relative to the 1-worker point
}

// ThreadScaling measures time-to-solution for each worker count on the same
// catalog (Fig. 5: 10,000 galaxies, 1..272 threads on Xeon Phi).
func ThreadScaling(cat *catalog.Catalog, cfg core.Config, workerCounts []int) ([]ThreadPoint, error) {
	points := make([]ThreadPoint, 0, len(workerCounts))
	var base time.Duration
	for _, w := range workerCounts {
		c := cfg
		c.Workers = w
		start := time.Now()
		if _, err := core.Compute(cat, c); err != nil {
			return nil, err
		}
		el := time.Since(start)
		if len(points) == 0 {
			base = el
		}
		points = append(points, ThreadPoint{
			Workers: w,
			Elapsed: el,
			Speedup: float64(base) / float64(el),
		})
	}
	return points, nil
}

// ScalePoint is one row of a weak- or strong-scaling measurement
// (Figs. 6/7).
type ScalePoint struct {
	Ranks    int
	Galaxies int
	BoxL     float64
	// NodeTime is the simulated cluster time-to-solution: the maximum
	// isolated per-rank compute time plus the partition overhead.
	NodeTime time.Duration
	// MeanTime is the mean per-rank compute time.
	MeanTime time.Duration
	// PairImbalance is max/mean pairs per rank (the paper's load-balance
	// metric: <= 1.10 weak, up to 1.60 strong).
	PairImbalance float64
	// PrimaryImbalance is max/mean primaries per rank (balanced to 0.1% in
	// the paper).
	PrimaryImbalance float64
	TotalPairs       uint64
}

// rankWork captures one rank's node-local problem.
type rankWork struct {
	local   *catalog.Catalog
	primary []bool
}

// distributeOnly cuts cat into one part per simulated rank and materializes
// every rank's local problem (owned galaxies plus halo copies within rmax).
func distributeOnly(cat *catalog.Catalog, nranks int, rmax float64) ([]rankWork, error) {
	if cat.Box.L > 0 && rmax >= cat.Box.L/2 {
		return nil, fmt.Errorf("sim: rmax %v must be below half the periodic box %v", rmax, cat.Box.L)
	}
	parts, err := partition.Split(cat, nranks)
	if err != nil {
		return nil, err
	}
	works := make([]rankWork, nranks)
	for i := range parts {
		works[i].local, works[i].primary = partition.Materialize(cat, parts, i, rmax)
	}
	return works, nil
}

// runCluster measures each rank's node-local computation in isolation and
// aggregates the scaling metrics.
func runCluster(works []rankWork, cfg core.Config) (ScalePoint, *core.Result, error) {
	var pt ScalePoint
	pt.Ranks = len(works)
	var total *core.Result
	var maxPairs, sumPairs uint64
	var maxPrim, sumPrim int
	var maxTime, sumTime time.Duration
	for _, w := range works {
		start := time.Now()
		res, err := core.ComputeSubset(w.local, w.primary, cfg)
		if err != nil {
			return pt, nil, err
		}
		el := time.Since(start)
		if el > maxTime {
			maxTime = el
		}
		sumTime += el
		if res.Pairs > maxPairs {
			maxPairs = res.Pairs
		}
		sumPairs += res.Pairs
		if res.NPrimaries > maxPrim {
			maxPrim = res.NPrimaries
		}
		sumPrim += res.NPrimaries
		if total == nil {
			total = res
		} else if err := total.Add(res); err != nil {
			return pt, nil, err
		}
	}
	n := float64(len(works))
	pt.NodeTime = maxTime
	pt.MeanTime = time.Duration(float64(sumTime) / n)
	if sumPairs > 0 {
		pt.PairImbalance = float64(maxPairs) / (float64(sumPairs) / n)
	}
	if sumPrim > 0 {
		pt.PrimaryImbalance = float64(maxPrim) / (float64(sumPrim) / n)
	}
	pt.TotalPairs = sumPairs
	pt.Galaxies = total.NPrimaries
	return pt, total, nil
}

// WeakScaling generates a density-matched catalog per rank count (fixed
// galaxies per rank, growing box — Table 1's construction) and measures the
// simulated cluster time (Fig. 6).
func WeakScaling(rankCounts []int, galaxiesPerRank int, cfg core.Config, seed int64) ([]ScalePoint, error) {
	out := make([]ScalePoint, 0, len(rankCounts))
	for _, nr := range rankCounts {
		row := catalog.ScaledTable1Row(nr, galaxiesPerRank)
		cat := catalog.GenerateTable1Dataset(row, seed)
		pt, _, err := scalingPoint(cat, nr, cfg)
		if err != nil {
			return nil, fmt.Errorf("weak scaling at %d ranks: %w", nr, err)
		}
		pt.BoxL = row.BoxL
		out = append(out, pt)
	}
	return out, nil
}

// StrongScaling keeps one catalog fixed (the smallest weak-scaling dataset,
// as in Fig. 7) and sweeps the rank count.
func StrongScaling(rankCounts []int, cat *catalog.Catalog, cfg core.Config) ([]ScalePoint, error) {
	out := make([]ScalePoint, 0, len(rankCounts))
	for _, nr := range rankCounts {
		pt, _, err := scalingPoint(cat, nr, cfg)
		if err != nil {
			return nil, fmt.Errorf("strong scaling at %d ranks: %w", nr, err)
		}
		pt.BoxL = cat.Box.L
		out = append(out, pt)
	}
	return out, nil
}

func scalingPoint(cat *catalog.Catalog, nranks int, cfg core.Config) (ScalePoint, *core.Result, error) {
	works, err := distributeOnly(cat, nranks, cfg.RMax)
	if err != nil {
		return ScalePoint{}, nil, err
	}
	return runCluster(works, cfg)
}

// BreakdownFractions converts a timing breakdown into the Fig. 4 pie
// fractions (of summed worker busy time plus build phases).
func BreakdownFractions(b core.Breakdown) map[string]float64 {
	total := float64(b.TreeBuild + b.Gather + b.Consume + b.SelfCount + b.AlmZeta + b.IO)
	if total == 0 {
		return nil
	}
	return map[string]float64{
		"io":         float64(b.IO) / total,
		"tree build": float64(b.TreeBuild) / total,
		"gather":     float64(b.Gather) / total,
		"consume":    float64(b.Consume) / total,
		"self count": float64(b.SelfCount) / total,
		"alm+zeta":   float64(b.AlmZeta) / total,
	}
}

// SE15Comparison measures the isotropic-only mode (the Slepian–Eisenstein
// 2015 baseline algorithm, Sec. 2.2/2.3) against the full anisotropic mode
// on the same catalog.
func SE15Comparison(cat *catalog.Catalog, cfg core.Config) (iso, aniso time.Duration, err error) {
	c := cfg
	c.IsotropicOnly = true
	start := time.Now()
	if _, err = core.Compute(cat, c); err != nil {
		return
	}
	iso = time.Since(start)
	start = time.Now()
	if _, err = core.Compute(cat, cfg); err != nil {
		return
	}
	aniso = time.Since(start)
	return
}

// Calibrate measures the host's kernel throughput for the perfmodel
// extrapolations: pair rate, tree build cost, and the weak-scaling pair
// imbalance.
func Calibrate(cat *catalog.Catalog, cfg core.Config) (perfmodel.Calibration, error) {
	cfg.SelfCount = false // match the paper's raw kernel cost model
	start := time.Now()
	res, err := core.Compute(cat, cfg)
	if err != nil {
		return perfmodel.Calibration{}, err
	}
	el := time.Since(start)
	// Fraction of worker *phase* time in gather + kernel: WorkerTotal also
	// carries scheduler and commit-clock waits (pure wall clock on an
	// oversubscribed host), which would dilute the fraction.
	busy := res.Timings.Gather + res.Timings.Consume + res.Timings.SelfCount + res.Timings.AlmZeta
	kernelFrac := 0.0
	if busy > 0 {
		kernelFrac = float64(res.Timings.Consume+res.Timings.Gather) / float64(busy)
	}
	if kernelFrac <= 0 || kernelFrac > 1 {
		kernelFrac = 1
	}
	cal := perfmodel.Calibration{
		PairsPerSec: float64(res.Pairs) / (el.Seconds() * kernelFrac),
		Imbalance:   1.10, // the paper's observed weak-scaling imbalance bound
	}
	if cat.Len() > 0 {
		cal.TreeBuildPerGalaxy = res.Timings.TreeBuild / time.Duration(cat.Len())
	}
	return cal, nil
}

// BucketPoint is one measurement of the bucket-size ablation (the paper
// fixes k = 128 to fill the 512-bit vector registers; Sec. 3.3.2 derives
// the flop/byte ratio as a function of k).
type BucketPoint struct {
	Size     int
	Elapsed  time.Duration
	FlopByte float64
}

// BucketSweep measures time-to-solution across bucket sizes and reports the
// paper's analytic flop/byte ratio 286*2*k / ((3k + 286*2) * 8) per point.
// HeapSampler starts a goroutine polling runtime.MemStats.HeapInuse and
// returns a stop function yielding the observed peak — the measurement
// behind the out-of-core memory comparisons (the `sharded` experiment).
// It forces a collection first so the peak reflects the measured phase.
func HeapSampler() func() uint64 {
	runtime.GC()
	var (
		peak uint64
		done = make(chan struct{})
		quit = make(chan struct{})
	)
	go func() {
		defer close(done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapInuse > peak {
					peak = ms.HeapInuse
				}
			}
		}
	}()
	return func() uint64 {
		close(quit)
		<-done
		return peak
	}
}

func BucketSweep(cat *catalog.Catalog, cfg core.Config, sizes []int) ([]BucketPoint, error) {
	out := make([]BucketPoint, 0, len(sizes))
	for _, k := range sizes {
		c := cfg
		c.BucketSize = k
		start := time.Now()
		if _, err := core.Compute(cat, c); err != nil {
			return nil, err
		}
		out = append(out, BucketPoint{
			Size:     k,
			Elapsed:  time.Since(start),
			FlopByte: float64(286*2*k) / (float64(3*k+286*2) * 8),
		})
	}
	return out, nil
}
