// Package bruteforce implements the O(N^3) direct triplet counting that all
// 3PCF algorithms used before the multipole approach (Sec. 2.1). It exists
// as (a) the correctness oracle for the O(N^2) engine — the two must agree
// to floating-point precision on any input — and (b) the "prior state of the
// art" baseline for the complexity-crossover benchmarks.
package bruteforce

import (
	"math"
	"math/cmplx"

	"galactos/internal/catalog"
	"galactos/internal/core"
	"galactos/internal/geom"
	"galactos/internal/hist"
	"galactos/internal/sphharm"
)

// Aniso computes the anisotropic 3PCF multipoles by direct triple
// enumeration: for every primary p and every ordered pair (j, k) of distinct
// secondaries it accumulates
//
//	zeta^m_{l1 l2}(bin_j, bin_k) += w_p w_j w_k Y_{l1 m}(rhat_j) Y*_{l2 m}(rhat_k)
//
// in the configured line-of-sight frame (the global z axis, the primary's
// radial frame, or each pair's midpoint frame). The result is directly
// comparable (same layout, same normalization) to core.Compute with
// SelfCount enabled.
func Aniso(cat *catalog.Catalog, cfg core.Config) (*core.Result, error) {
	return aniso(cat, cfg, false)
}

// aniso is Aniso with a switch for the degenerate j == k terms: withSelf
// keeps them, which is what core.Compute accumulates with SelfCount off.
func aniso(cat *catalog.Catalog, cfg core.Config, withSelf bool) (*core.Result, error) {
	cfg = fillDefaults(cfg)
	bins, err := hist.NewBinning(cfg.RMin, cfg.RMax, cfg.NBins)
	if err != nil {
		return nil, err
	}
	res := core.NewResult(cfg.LMax, bins)
	res.NGalaxies = cat.Len()

	mono := sphharm.NewMonomialTable(cfg.LMax)
	ytab := sphharm.NewYlmTable(cfg.LMax, mono)
	scratch := make([]float64, mono.Len())
	npair := sphharm.PairCount(cfg.LMax)

	pts := cat.Positions()
	ws := cat.Weights()
	nb := bins.N

	type sec struct {
		bin int
		w   float64
		y   []complex128
	}

	for p := range pts {
		var rot geom.Rotation
		if cfg.LOS == core.LOSRadial {
			rot = geom.ToLineOfSight(pts[p].Sub(cfg.Observer))
		}
		var secs []sec
		for j := range pts {
			if j == p {
				continue
			}
			sep := cat.Box.Separation(pts[p], pts[j])
			r2 := sep.Norm2()
			if r2 == 0 {
				continue
			}
			r := math.Sqrt(r2)
			bin := bins.Index(r)
			if bin < 0 {
				continue
			}
			switch cfg.LOS {
			case core.LOSRadial:
				sep = rot.Apply(sep)
			case core.LOSMidpoint:
				sep = geom.MidpointLOS(pts[p].Sub(cfg.Observer).Normalized(),
					pts[j].Sub(cfg.Observer).Normalized()).Apply(sep)
			}
			u := sep.Scale(1 / r)
			y := make([]complex128, npair)
			ytab.EvalPoint(u.X, u.Y, u.Z, scratch, y)
			secs = append(secs, sec{bin: bin, w: ws[j], y: y})
			res.Pairs++
		}
		wp := complex(ws[p], 0)
		for a := range secs {
			sj := &secs[a]
			for b := range secs {
				if a == b && !withSelf {
					continue // same secondary: not a triangle
				}
				sk := &secs[b]
				wjk := wp * complex(sj.w*sk.w, 0)
				for ci, c := range res.Combos.Combos {
					v := sj.y[sphharm.PairIndex(c.L1, c.M)] *
						cmplx.Conj(sk.y[sphharm.PairIndex(c.L2, c.M)])
					idx := (ci*nb+sj.bin)*nb + sk.bin
					res.Aniso[idx] += wjk * v
				}
			}
		}
		res.NPrimaries++
		res.SumWeight += ws[p]
	}
	return res, nil
}

// Iso computes the isotropic 3PCF multipoles by direct triplet counting
// using only Legendre polynomials of the enclosed angle — a mathematically
// independent path from the spherical-harmonic machinery:
//
//	zeta_l(b1, b2) = sum_p w_p sum_{j != k} w_j w_k P_l(rhat_j . rhat_k)
//
// The returned slice is indexed [l][b1*nbins + b2].
func Iso(cat *catalog.Catalog, rmin, rmax float64, nbins, lmax int) ([][]float64, error) {
	bins, err := hist.NewBinning(rmin, rmax, nbins)
	if err != nil {
		return nil, err
	}
	out := make([][]float64, lmax+1)
	for l := range out {
		out[l] = make([]float64, nbins*nbins)
	}
	pts := cat.Positions()
	ws := cat.Weights()
	pl := make([]float64, lmax+1)

	type sec struct {
		bin int
		w   float64
		u   geom.Vec3
	}
	for p := range pts {
		var secs []sec
		for j := range pts {
			if j == p {
				continue
			}
			sep := cat.Box.Separation(pts[p], pts[j])
			r2 := sep.Norm2()
			if r2 == 0 {
				continue
			}
			r := math.Sqrt(r2)
			bin := bins.Index(r)
			if bin < 0 {
				continue
			}
			secs = append(secs, sec{bin: bin, w: ws[j], u: sep.Scale(1 / r)})
		}
		for a, sj := range secs {
			for b, sk := range secs {
				if a == b {
					continue
				}
				dot := sj.u.Dot(sk.u)
				// Clamp for numerical safety at antipodal/parallel pairs.
				if dot > 1 {
					dot = 1
				} else if dot < -1 {
					dot = -1
				}
				sphharm.LegendreAll(lmax, dot, pl)
				w := ws[p] * sj.w * sk.w
				idx := sj.bin*nbins + sk.bin
				for l := 0; l <= lmax; l++ {
					out[l][idx] += w * pl[l]
				}
			}
		}
	}
	return out, nil
}

func fillDefaults(cfg core.Config) core.Config {
	if cfg.NBins == 0 {
		cfg.NBins = 10
	}
	if cfg.LMax == 0 && cfg.RMax == 0 {
		def := core.DefaultConfig()
		cfg.RMax = def.RMax
		cfg.LMax = def.LMax
	}
	return cfg
}
