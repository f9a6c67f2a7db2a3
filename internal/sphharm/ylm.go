package sphharm

import (
	"fmt"
	"math"
	"math/cmplx"
)

// PairCount returns the number of (l, m) pairs with 0 <= m <= l <= L:
// (L+1)(L+2)/2, e.g. 66 at L = 10. Negative m is implied by the symmetry
// a_{l,-m} = (-1)^m conj(a_lm) for real weights.
func PairCount(l int) int { return (l + 1) * (l + 2) / 2 }

// PairIndex maps (l, m>=0) to a dense index in [0, PairCount(L)).
func PairIndex(l, m int) int { return l*(l+1)/2 + m }

// ylmTerm is one sparse entry of the polynomial expansion of Y_lm.
type ylmTerm struct {
	mono int        // monomial index in the shared MonomialTable ordering
	c    complex128 // coefficient
}

// ylmTermRI is one sparse entry of the real- or imaginary-part expansion of
// Y_lm: a real coefficient over one monomial. Every complex term of
// buildYlmTerms has a purely real or purely imaginary coefficient (the i^a
// factors of the (x+iy)^m binomial expansion), so the complex expansion
// splits losslessly into two real ones of half the combined arithmetic.
type ylmTermRI struct {
	mono int32
	c    float64
}

// YlmTable holds, for every (l, m >= 0) up to L, the expansion of the
// complex spherical harmonic Y_lm evaluated on the unit sphere as a sparse
// polynomial in (x, y, z):
//
//	Y_lm(xhat) = N_lm * tildeP_l^m(z) * (x + i y)^m
//	           = sum over monomials c^{lm}_{kpq} x^k y^p z^q,  k+p+q <= l.
//
// This is the bridge between the accumulated monomial sums M_kpq (Eq. 1 of
// the paper) and the spherical-harmonic coefficients a_lm of each radial
// shell: a_lm = sum_kpq c^{lm}_{kpq} M_kpq.
//
// Only m >= 0 is tabulated. The monomial sums the engine feeds through
// Alm/AlmRI come from real weights, so a_{l,-m} = (-1)^m conj(a_{l,m})
// (NegM) reconstructs every negative-m coefficient; tabulating them would
// double the conversion work for no information. The expansions are stored
// split into real- and imaginary-part term lists with real coefficients, so
// the conversion is two real sparse dot products instead of one complex one.
type YlmTable struct {
	L       int
	Mono    *MonomialTable
	reTerms [][]ylmTermRI // per (l, m>=0): expansion of Re Y_lm
	imTerms [][]ylmTermRI // per (l, m>=0): expansion of Im Y_lm
}

// NewYlmTable builds the expansion tables for all l <= L. The table shares
// the monomial ordering of mono, which must have order >= L.
func NewYlmTable(l int, mono *MonomialTable) *YlmTable {
	if mono == nil {
		mono = NewMonomialTable(l)
	}
	if mono.L < l {
		panic(fmt.Sprintf("sphharm: monomial table order %d < L %d", mono.L, l))
	}
	t := &YlmTable{
		L:       l,
		Mono:    mono,
		reTerms: make([][]ylmTermRI, PairCount(l)),
		imTerms: make([][]ylmTermRI, PairCount(l)),
	}
	for ll := 0; ll <= l; ll++ {
		for m := 0; m <= ll; m++ {
			i := PairIndex(ll, m)
			for _, tm := range buildYlmTerms(ll, m, mono) {
				if re := real(tm.c); re != 0 {
					t.reTerms[i] = append(t.reTerms[i], ylmTermRI{mono: int32(tm.mono), c: re})
				}
				if im := imag(tm.c); im != 0 {
					t.imTerms[i] = append(t.imTerms[i], ylmTermRI{mono: int32(tm.mono), c: im})
				}
			}
		}
	}
	return t
}

// buildYlmTerms expands N_lm tildeP_l^m(z) (x+iy)^m into monomials.
func buildYlmTerms(l, m int, mono *MonomialTable) []ylmTerm {
	norm := ylmNorm(l, m)
	zc := strippedALP(l, m) // coefficients over z^j, j = 0..l-m
	var out []ylmTerm
	// (x+iy)^m = sum_a C(m,a) i^a x^(m-a) y^a
	ipow := [4]complex128{1, 1i, -1, -1i}
	for j, cz := range zc {
		if cz == 0 {
			continue
		}
		for a := 0; a <= m; a++ {
			c := complex(norm*cz*binomial(m, a), 0) * ipow[a%4]
			out = append(out, ylmTerm{mono: mono.Index(m-a, a, j), c: c})
		}
	}
	return out
}

// Alm converts monomial sums M (length Mono.Len(), canonical order) into
// spherical-harmonic coefficients for all (l, m >= 0), writing into out
// (length PairCount(L)). This is the per-radial-bin, per-primary conversion
// step: a_lm = sum_i Y_lm(rhat_i) for galaxies i in the bin, computed from
// the bin's accumulated power combinations.
func (t *YlmTable) Alm(m []float64, out []complex128) {
	if len(m) != t.Mono.Len() {
		panic("sphharm: Alm monomial sum length mismatch")
	}
	if len(out) != PairCount(t.L) {
		panic("sphharm: Alm output length mismatch")
	}
	for i := range out {
		out[i] = complex(dotRI(t.reTerms[i], m), dotRI(t.imTerms[i], m))
	}
}

// AlmRI is Alm with structure-of-arrays output: the real parts of every
// (l, m >= 0) coefficient go to re and the imaginary parts to im (each of
// length PairCount(L)). This is the engine's hot conversion path: two real
// sparse dot products per coefficient, roughly half the arithmetic of the
// complex-accumulator form, feeding the split zeta accumulation directly.
func (t *YlmTable) AlmRI(m []float64, re, im []float64) {
	if len(m) != t.Mono.Len() {
		panic("sphharm: AlmRI monomial sum length mismatch")
	}
	if len(re) != PairCount(t.L) || len(im) != PairCount(t.L) {
		panic("sphharm: AlmRI output length mismatch")
	}
	for i := range re {
		re[i] = dotRI(t.reTerms[i], m)
	}
	for i := range im {
		im[i] = dotRI(t.imTerms[i], m)
	}
}

// dotRI evaluates one sparse real dot product over monomial sums.
func dotRI(terms []ylmTermRI, m []float64) float64 {
	var s float64
	for _, tm := range terms {
		s += tm.c * m[tm.mono]
	}
	return s
}

// EvalPoint evaluates Y_lm(xhat) for every (l, m >= 0) at a single unit
// vector, writing into out (length PairCount(L)). scratch must have length
// Mono.Len(); it is overwritten. The engine never calls it (its self-count
// correction runs on Legendre moments, see SelfProduct): this is the
// independent oracle internal/bruteforce and the tests evaluate against.
func (t *YlmTable) EvalPoint(x, y, z float64, scratch []float64, out []complex128) {
	t.Mono.Evaluate(x, y, z, scratch)
	t.Alm(scratch, out)
}

// YlmDirect evaluates the complex spherical harmonic Y_lm (any m, including
// negative) at spherical angles theta, phi using the closed form
// N_lm P_l^m(cos theta) e^{i m phi}. Independent of the polynomial tables;
// used as a test oracle.
func YlmDirect(l, m int, theta, phi float64) complex128 {
	am := m
	if am < 0 {
		am = -am
	}
	v := complex(ylmNorm(l, am)*AssociatedLegendreP(l, am, math.Cos(theta)), 0) *
		cmplx.Exp(complex(0, float64(am)*phi))
	if m < 0 {
		v = cmplx.Conj(v)
		if am%2 == 1 {
			v = -v
		}
	}
	return v
}

// NegM returns a_{l,-m} given a_{lm} for real-weighted fields:
// a_{l,-m} = (-1)^m conj(a_lm).
func NegM(m int, alm complex128) complex128 {
	v := cmplx.Conj(alm)
	if m%2 == 1 {
		v = -v
	}
	return v
}
