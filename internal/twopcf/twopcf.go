// Package twopcf implements the anisotropic 2-point correlation function by
// parallel pair counting. The 2PCF is the substrate the paper positions the
// 3PCF against (Secs. 1.1, 2.3): the BAO standard ruler lives in its
// monopole, redshift-space distortions in its quadrupole, and the
// Chhugani et al. SC'12 billion-particle 2PCF is the prior HPC comparison
// point. Galactos needs it as the baseline statistic whose constraints the
// 3PCF improves on.
package twopcf

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"galactos/internal/catalog"
	"galactos/internal/grid"
	"galactos/internal/hist"
	"galactos/internal/sphharm"
)

// Config holds the pair-count parameters.
type Config struct {
	RMin, RMax float64
	NBins      int
	// LMax is the maximum Legendre multipole of the anisotropic 2PCF
	// (0 = monopole only; 2 adds the RSD-sensitive quadrupole).
	LMax int
	// Workers <= 0 selects GOMAXPROCS. It changes speed only: the counts
	// are bitwise the same at any worker count.
	Workers int
}

// PairCounts holds weighted pair counts per radial bin and Legendre
// multipole in mu = cos(angle to the z-axis line of sight):
// Counts[l][bin] = sum over pairs w_i w_j P_l(mu) (plane-parallel).
type PairCounts struct {
	Bins   hist.Binning
	LMax   int
	Counts [][]float64
	NPairs uint64
	// SumW is the total catalog weight, SumW2 the total squared weight
	// (needed by estimator normalizations).
	SumW, SumW2 float64
}

// Count accumulates weighted Legendre pair counts over all ordered pairs of
// cat within the binning (each unordered pair counted twice, matching the
// 3PCF engine's convention).
func Count(cat *catalog.Catalog, cfg Config) (*PairCounts, error) {
	bins, err := hist.NewBinning(cfg.RMin, cfg.RMax, cfg.NBins)
	if err != nil {
		return nil, err
	}
	if cfg.LMax < 0 {
		return nil, fmt.Errorf("twopcf: negative LMax")
	}
	if cat.Box.L > 0 && cfg.RMax >= cat.Box.L/2 {
		return nil, fmt.Errorf("twopcf: RMax %v must be below half the box %v", cfg.RMax, cat.Box.L)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	pc := &PairCounts{Bins: bins, LMax: cfg.LMax}
	pc.Counts = make([][]float64, cfg.LMax+1)
	for l := range pc.Counts {
		pc.Counts[l] = make([]float64, cfg.NBins)
	}
	pts := cat.Positions()
	ws := cat.Weights()
	for _, w := range ws {
		pc.SumW += w
		pc.SumW2 += float64(w * w)
	}
	if len(pts) == 0 {
		return pc, nil
	}

	g := grid.Build(pts, cfg.RMax/2, cat.Box)

	// Workers claim fixed 32-primary chunks and fold each chunk's sums into
	// pc.Counts in chunk order, the commit waiting for its turn: the counts
	// are the same bits at any worker count.
	const chunk = 32
	var next atomic.Int64
	var mu sync.Mutex
	turn := sync.NewCond(&mu)
	committed := int64(0) // chunks folded so far
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([][]float64, cfg.LMax+1)
			for l := range local {
				local[l] = make([]float64, cfg.NBins)
			}
			pl := make([]float64, cfg.LMax+1)
			buf := make([]int32, 0, 1024)
			n := int64(len(pts))
			for {
				c := next.Add(1) - 1
				lo := c * chunk
				if lo >= n {
					break
				}
				hi := min(lo+chunk, n)
				pairs := uint64(0)
				for i := lo; i < hi; i++ {
					buf = g.QueryRadius(pts[i], cfg.RMax, buf[:0])
					for _, j := range buf {
						if int64(j) == i {
							continue
						}
						sep := cat.Box.Separation(pts[i], pts[int(j)])
						r2 := sep.Norm2()
						if r2 == 0 {
							continue
						}
						r := math.Sqrt(r2)
						bin := bins.Index(r)
						if bin < 0 {
							continue
						}
						mu_ := sep.Z / r
						sphharm.LegendreAll(cfg.LMax, mu_, pl)
						w := ws[i] * ws[int(j)]
						for l := 0; l <= cfg.LMax; l++ {
							local[l][bin] += float64(w * pl[l])
						}
						pairs++
					}
				}
				mu.Lock()
				for committed != c {
					turn.Wait()
				}
				for l := range local {
					for b, v := range local[l] {
						pc.Counts[l][b] += v
					}
					clear(local[l])
				}
				pc.NPairs += pairs
				committed++
				mu.Unlock()
				turn.Broadcast()
			}
		}()
	}
	wg.Wait()
	return pc, nil
}

// Multipole returns the (2l+1)/2-normalized Legendre multipole of the pair
// distribution in bin b: the standard xi_l estimator numerator.
func (p *PairCounts) Multipole(l, b int) float64 {
	return float64(2*l+1) / 2 * p.Counts[l][b]
}

// LandySzalay computes the Landy–Szalay estimator of the 2PCF monopole,
//
//	xi(r) = (DD - 2 DR + RR) / RR,
//
// from data and random catalogs sharing a box. Returns xi per radial bin.
func LandySzalay(data, random *catalog.Catalog, cfg Config) ([]float64, error) {
	if random.Len() == 0 {
		return nil, fmt.Errorf("twopcf: empty random catalog")
	}
	cfg.LMax = 0
	dd, err := Count(data, cfg)
	if err != nil {
		return nil, err
	}
	rr, err := Count(random, cfg)
	if err != nil {
		return nil, err
	}
	// Cross counts: concatenate with marker weights is error-prone; count
	// directly by querying randoms around data points.
	dr, err := crossCount(data, random, cfg)
	if err != nil {
		return nil, err
	}
	nd := float64(data.Len())
	nr := float64(random.Len())
	xi := make([]float64, cfg.NBins)
	for b := range xi {
		ddN := dd.Counts[0][b] / (nd * (nd - 1))
		drN := dr[b] / (nd * nr)
		rrN := rr.Counts[0][b] / (nr * (nr - 1))
		if rrN == 0 {
			xi[b] = 0
			continue
		}
		xi[b] = (ddN - 2*drN + rrN) / rrN
	}
	return xi, nil
}

// crossCount counts data–random pairs per bin (ordered, data first).
func crossCount(data, random *catalog.Catalog, cfg Config) ([]float64, error) {
	bins, err := hist.NewBinning(cfg.RMin, cfg.RMax, cfg.NBins)
	if err != nil {
		return nil, err
	}
	rpts := random.Positions()
	g := grid.Build(rpts, cfg.RMax/2, random.Box)
	out := make([]float64, cfg.NBins)
	buf := make([]int32, 0, 1024)
	for _, d := range data.Galaxies {
		buf = g.QueryRadius(d.Pos, cfg.RMax, buf[:0])
		for _, j := range buf {
			r := random.Box.Separation(d.Pos, rpts[j]).Norm()
			bin := bins.Index(r)
			if bin >= 0 && r > 0 {
				out[bin] += d.Weight * random.Galaxies[j].Weight
			}
		}
	}
	return out, nil
}
