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

// YlmTable converts the kernel's accumulated sums S_{m,j} (see
// MonomialTable) into spherical-harmonic coefficients. On the unit sphere
//
//	Y_lm(xhat) = N_lm * tildeP_l^m(z) * (x + i y)^m,
//
// with tildeP_l^m a real polynomial in z of degree l-m, so
//
//	a_lm = sum_j N_lm c^{lm}_j S_{m,j}:
//
// one real coefficient list per (l, m) contracts the Re row of order m into
// Re a_lm and the Im row into Im a_lm. tildeP_l^m has the parity of l-m, so
// only every other power carries a nonzero coefficient.
//
// Only m >= 0 is tabulated. The sums come from real weights, so
// a_{l,-m} = (-1)^m conj(a_{l,m}) (NegM) reconstructs every negative-m
// coefficient; tabulating them would double the conversion work for no
// information.
type YlmTable struct {
	L    int
	Mono *MonomialTable

	// The conversion: one binSlot per (l, m >= 0) slot, order by order and
	// degree by degree within one, and their coefficients end to end.
	binSlots []binSlot
	binCoef  []float64
}

// binSlot is one (l, m >= 0) slot of the conversion: its a_lm is the FMA
// chain of its n nonzero tildeP terms — N_lm c^{lm}_j at j = p, p+2, ...
// (p the parity of l-m), binCoef's next n values — over the sums re, re+2,
// ... (im, im+2, ...; im < 0 for m = 0), which hold S_{m,j} at those j,
// written to PairIndex slot out (AlmBins: slab row out). The layout is the
// one almBinsAsm addresses.
type binSlot struct {
	re, im, n, out int64
}

// NewYlmTable builds the conversion table for all l <= L over the layout of
// mono, which must have order >= L (nil builds one of order L).
func NewYlmTable(l int, mono *MonomialTable) *YlmTable {
	if mono == nil {
		mono = NewMonomialTable(l)
	}
	if mono.L < l {
		panic(fmt.Sprintf("sphharm: monomial table order %d < L %d", mono.L, l))
	}
	t := &YlmTable{L: l, Mono: mono}
	for m := 0; m <= l; m++ {
		re, im := mono.rows(m)
		for ll := m; ll <= l; ll++ {
			norm := ylmNorm(ll, m)
			zc := strippedALP(ll, m) // coefficients over z^j, j = 0..l-m
			p := (ll - m) % 2
			for j := p; j < len(zc); j += 2 {
				t.binCoef = append(t.binCoef, norm*zc[j])
			}
			slot := binSlot{re: int64(re + p), im: -1, n: int64((ll-m-p)/2 + 1), out: int64(PairIndex(ll, m))}
			if im >= 0 {
				slot.im = int64(im + p)
			}
			t.binSlots = append(t.binSlots, slot)
		}
	}
	return t
}

// Alm converts accumulated sums (length Mono.Len(), MonomialTable order)
// into spherical-harmonic coefficients for all (l, m >= 0), writing into out
// (length PairCount(L)): a_lm = sum_i w_i Y_lm(rhat_i) over the pairs the
// sums were accumulated from. Its bits are AlmRI's.
func (t *YlmTable) Alm(m []float64, out []complex128) {
	if len(m) != t.Mono.Len() {
		panic("sphharm: Alm sum length mismatch")
	}
	if len(out) != PairCount(t.L) {
		panic("sphharm: Alm output length mismatch")
	}
	t.almSlots(m, func(i int, re, im float64) { out[i] = complex(re, im) })
}

// AlmRI is Alm with structure-of-arrays output: the real parts of every
// (l, m >= 0) coefficient go to re and the imaginary parts to im (each of
// length PairCount(L)). It is the per-bin form of AlmBins and the reference
// AlmBins is pinned against.
func (t *YlmTable) AlmRI(m []float64, re, im []float64) {
	if len(m) != t.Mono.Len() {
		panic("sphharm: AlmRI sum length mismatch")
	}
	if len(re) != PairCount(t.L) || len(im) != PairCount(t.L) {
		panic("sphharm: AlmRI output length mismatch")
	}
	t.almSlots(m, func(i int, r, s float64) { re[i], im[i] = r, s })
}

// almSlots walks the binSlots with almBins' arithmetic for one bin and hands
// set each (l, m >= 0) slot's Re and Im parts: binDot of the slot's
// coefficients over every other sum of the order's Re (Im) row. An m = 0
// slot's Im part is +0.
func (t *YlmTable) almSlots(m []float64, set func(i int, re, im float64)) {
	coef := t.binCoef
	for _, s := range t.binSlots {
		c := coef[:s.n]
		coef = coef[s.n:]
		var im float64
		if s.im >= 0 {
			im = binDot(c, m[s.im:], 2)
		}
		set(int(s.out), binDot(c, m[s.re:], 2), im)
	}
}

// AlmBins is AlmRI for every bin of a primary at once, vectorised over bins
// and stored straight into a unit slab in the split layout: sums holds
// ReduceBins' transposed sums (Mono.Len() rows of BinStride(nb)), and slot
// i's row over the nb bins goes to dst[i*stride:], its real parts at
// [0, nb) and its imaginary parts at [nb, 2nb). Each value is bitwise
// AlmRI's for that bin's sums: both are binDot over the slot's
// coefficients.
func (t *YlmTable) AlmBins(sums []float64, nb int, dst []float64, stride int) {
	t.checkBins(sums, nb, dst, stride)
	almBins(t, sums, nil, dst, nil, nb, stride)
}

// AlmBinsPacked is AlmBins in the packed layout of the anisotropic slabs:
// slot i's row holds (re, im) pairs per bin at dst[i*stride:][:2nb], and the
// same offsets of w receive them scaled by their bin's entry of scale —
// scale[b]*re, scale[b]*im, the weighted leg. A bin scaled by +0 gets +0 in
// w whatever the primary weight's sign.
func (t *YlmTable) AlmBinsPacked(sums []float64, nb int, scale, dst, w []float64, stride int) {
	t.checkBins(sums, nb, dst, stride)
	if len(scale) < nb || len(w) < len(dst) {
		panic("sphharm: AlmBinsPacked weighted leg shape mismatch")
	}
	almBins(t, sums, scale, dst, w, nb, stride)
}

// checkBins validates AlmBins' shared shapes: the transposed sums, and a slab
// of PairCount(L) rows of stride values each holding 2nb.
func (t *YlmTable) checkBins(sums []float64, nb int, dst []float64, stride int) {
	if nb <= 0 || len(sums) != t.Mono.Len()*BinStride(nb) {
		panic("sphharm: AlmBins sum shape mismatch")
	}
	if stride < 2*nb || len(dst) < (PairCount(t.L)-1)*stride+2*nb {
		panic("sphharm: AlmBins slab shape mismatch")
	}
}

// almBinsGeneric is the pure-Go body of AlmBins (w nil) and AlmBinsPacked.
func almBinsGeneric(t *YlmTable, sums, scale, dst, w []float64, nb, stride int) {
	ld := BinStride(nb)
	coef := t.binCoef
	for _, s := range t.binSlots {
		c := coef[:s.n]
		coef = coef[s.n:]
		o := int(s.out) * stride
		for b := 0; b < nb; b++ {
			re := binDot(c, sums[int(s.re)*ld+b:], 2*ld)
			var im float64
			if s.im >= 0 {
				im = binDot(c, sums[int(s.im)*ld+b:], 2*ld)
			}
			if w == nil {
				dst[o+b], dst[o+nb+b] = re, im
				continue
			}
			dst[o+2*b], dst[o+2*b+1] = re, im
			w[o+2*b], w[o+2*b+1] = scale[b]*re, scale[b]*im
		}
	}
}

// binDot is one slot's a_lm part for one bin: coefficient k times the sum
// k*step values along, a math.FMA chain from +0, and then + 0 (so a chain
// that ends in -0 reads +0, as almBinsAsm's does).
func binDot(c, col []float64, step int) float64 {
	var acc float64
	for k, v := range c {
		acc = math.FMA(v, col[k*step], acc)
	}
	return acc + 0
}

// EvalPoint evaluates Y_lm(xhat) for every (l, m >= 0) at a single unit
// vector, writing into out (length PairCount(L)). scratch must have length
// Mono.Len(); it is overwritten. The engine never calls it (its self-count
// correction runs on Legendre moments, see SelfProduct): this is the
// oracle internal/bruteforce and the tests evaluate against.
func (t *YlmTable) EvalPoint(x, y, z float64, scratch []float64, out []complex128) {
	t.Mono.evaluate(x, y, z, scratch)
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
