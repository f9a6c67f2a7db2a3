// Package estimator implements the two halves of the survey analysis of
// Sec. 6.1: the geometry correction and the jackknife covariance.
//
// The geometry correction: "one must also compute the 3PCF of hundreds of
// full-survey-size random catalogs ... These random catalog results enable
// the removal of spurious signal generated by the survey geometry. This
// correction step is key for extracting constraints on cosmological
// parameters from the data." The machinery follows the paper's ref. [31]
// (Slepian & Eisenstein 2015): the multipoles N_l of the data-minus-randoms
// field (D-R) measured in a masked geometry mix different true multipoles
// zeta_l' through the window multipoles f_l = R_l/R_0 of the random field.
// The mixing matrix
//
//	M_{l l'} = (2l'+1) sum_{l''} f_{l''} [ 3j(l, l', l''; 0, 0, 0) ]^2
//
// couples them; inverting per radial-bin pair recovers the edge-corrected
// zeta_l. For a maskless periodic volume f_{l”} = delta_{l”0} and M is the
// identity — the correction degrades gracefully to a no-op.
//
// The covariance: "partitioning the survey spatially to parallelize over
// many nodes amounts to jack-knifing: retaining the local 3PCF results on a
// per node basis would therefore constitute many samples of the 3PCF over
// small volumes." JackknifeCovariance estimates it from those per-region
// samples, and Matrix carries the inversion and diagnostics a model fit
// needs.
package estimator

import (
	"fmt"

	"galactos/internal/catalog"
	"galactos/internal/core"
	"galactos/internal/sphharm"
)

// Corrected holds edge-corrected isotropic multipoles.
type Corrected struct {
	LMax  int
	NBins int
	// Zeta[l][b1*NBins + b2] is the corrected zeta_l(r1, r2), normalized
	// per unit random monopole (the R_0 division of the estimator).
	Zeta [][]float64
	// WindowF[l][b1*NBins + b2] are the window multipole ratios f_l.
	WindowF [][]float64
	// Condition is the worst mixing-matrix condition estimate encountered.
	Condition float64
}

// MixingMatrix builds M_{l l'} for one radial-bin pair from the window
// multipole ratios f (f[0] must be 1 by construction).
func MixingMatrix(f []float64) *Matrix {
	lmax := len(f) - 1
	m := NewMatrix(lmax + 1)
	for l := 0; l <= lmax; l++ {
		for lp := 0; lp <= lmax; lp++ {
			s := 0.0
			for lpp := 0; lpp <= lmax; lpp++ {
				w := sphharm.Wigner3j000(l, lp, lpp)
				if w != 0 {
					s += float64(f[lpp] * w * w)
				}
			}
			m.Set(l, lp, float64(2*lp+1)*s)
		}
	}
	return m
}

// EdgeCorrect solves the mixing system per radial-bin pair given the
// multipoles of the D-R field (nRes) and of the random field (rRes), both
// from core.Compute over the same binning and LMax.
func EdgeCorrect(nRes, rRes *core.Result) (*Corrected, error) {
	if nRes.LMax != rRes.LMax || nRes.Bins != rRes.Bins {
		return nil, fmt.Errorf("estimator: D-R and random results have different configurations")
	}
	lmax := nRes.LMax
	nb := nRes.Bins.N
	out := &Corrected{LMax: lmax, NBins: nb, Condition: 1}
	out.Zeta = make([][]float64, lmax+1)
	out.WindowF = make([][]float64, lmax+1)
	for l := range out.Zeta {
		out.Zeta[l] = make([]float64, nb*nb)
		out.WindowF[l] = make([]float64, nb*nb)
	}
	f := make([]float64, lmax+1)
	n := make([]float64, lmax+1)
	for b1 := 0; b1 < nb; b1++ {
		for b2 := 0; b2 < nb; b2++ {
			r0 := rRes.IsoZeta(0, b1, b2)
			if r0 == 0 {
				// Empty window bin: nothing to correct into.
				continue
			}
			for l := 0; l <= lmax; l++ {
				f[l] = rRes.IsoZeta(l, b1, b2) / r0
				n[l] = nRes.IsoZeta(l, b1, b2) / r0
				out.WindowF[l][b1*nb+b2] = f[l]
			}
			m := MixingMatrix(f)
			if c := m.ConditionEstimate(); c > out.Condition {
				out.Condition = c
			}
			inv, err := m.Inverse()
			if err != nil {
				return nil, fmt.Errorf("estimator: mixing matrix singular at bins (%d,%d): %w", b1, b2, err)
			}
			for l := 0; l <= lmax; l++ {
				s := 0.0
				for lp := 0; lp <= lmax; lp++ {
					s += float64(inv.At(l, lp) * n[lp])
				}
				out.Zeta[l][b1*nb+b2] = s
			}
		}
	}
	return out, nil
}

// ScaledRandoms returns a copy of randoms with every weight set so the
// total matches the data's total weight — the normalization-run convention
// of the survey estimator (the standard zeta-hat convention: N_l/R_0
// becomes dimensionless and independent of the random catalog's density).
// The window ratios f_l = R_l/R_0 are unaffected by the overall scale.
func ScaledRandoms(data, randoms *catalog.Catalog) *catalog.Catalog {
	scaled := &catalog.Catalog{Box: randoms.Box, Galaxies: make([]catalog.Galaxy, randoms.Len())}
	w := data.TotalWeight() / float64(randoms.Len())
	for i, g := range randoms.Galaxies {
		scaled.Galaxies[i] = catalog.Galaxy{Pos: g.Pos, Weight: w}
	}
	return scaled
}
