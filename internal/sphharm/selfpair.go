package sphharm

import "math"

// The self-pair correction subtracts, for every secondary j of a primary,
// w_j^2 Y_l1m(rhat_j) conj(Y_l2m(rhat_j)) from the diagonal (b, b) element
// of channel (l1, l2, m). The two harmonics share m, so their azimuthal
// phases cancel and the product depends on mu = rhat_j . zhat alone; the
// Gaunt product-to-sum rule then linearises it into a short real Legendre
// series
//
//	Y_l1m conj(Y_l2m) = sum_L C_L P_L(mu),  |l1-l2| <= L <= l1+l2, l1+l2+L even,
//	C_L = (-1)^m sqrt((2l1+1)(2l2+1)) (2L+1)/(4 pi) (l1 l2 L; m -m 0)(l1 l2 L; 0 0 0).
//
// The whole self tensor of a radial bin therefore follows from the bin's
// Legendre moments sum_j w_j^2 P_L(mu_j), L <= 2 LMax (LegendreMoments),
// contracted with the per-channel coefficients (SelfProduct) — no Y_lm
// evaluation and no complex arithmetic on the pair path.

// LegendreTerm is one term C * P_L of a Legendre series.
type LegendreTerm struct {
	L int32
	C float64
}

// SelfProduct returns the Legendre series of Y_l1m(xhat) conj(Y_l2m(xhat)) in
// z = xhat . zhat (see above), lowest L first. It needs |m| <= min(l1, l2).
func SelfProduct(l1, l2, m int) []LegendreTerm {
	if abs(m) > l1 || abs(m) > l2 {
		panic("sphharm: SelfProduct requires |m| <= min(l1, l2)")
	}
	pre := math.Sqrt(float64((2*l1+1)*(2*l2+1))) / (4 * math.Pi)
	if m%2 != 0 {
		pre = -pre
	}
	terms := make([]LegendreTerm, 0, min(l1, l2)+1)
	for l := abs(l1 - l2); l <= l1+l2; l += 2 {
		c := pre * float64(2*l+1) * Wigner3j(l1, l2, l, m, -m, 0) * Wigner3j000(l1, l2, l)
		terms = append(terms, LegendreTerm{L: int32(l), C: c})
	}
	return terms
}

// maxMomentOrder bounds LegendreMoments' order: twice the largest multipole
// order any caller supports, with room to spare.
const maxMomentOrder = 63

// momentA and momentB hoist the recurrence coefficients (2n-1)/n and (n-1)/n
// of n P_n = (2n-1) z P_{n-1} - (n-1) P_{n-2}. At n = 1 they are 1 and 0, so
// the recurrence starts from P_0 alone (P_{-1} is multiplied away).
var momentA, momentB = func() (a, b [maxMomentOrder + 1]float64) {
	for n := 1; n <= maxMomentOrder; n++ {
		a[n] = float64(2*n-1) / float64(n)
		b[n] = float64(n-1) / float64(n)
	}
	return
}()

// LegendreMoments writes the weighted Legendre moments of one pair tile,
//
//	out[n] = sum_j ws[j]^2 P_n(zs[j]),  n = 0 .. len(out)-1,
//
// by the three-term recurrence on q_n = w^2 P_n (the weight rides the
// recurrence, so a step costs three multiplies and a subtract). The pairs
// run in groups of four, whose terms are summed as (q0+q1)+(q2+q3) before
// joining out[n], and the tail runs one pair at a time. It is a lane
// primitive: the vector body carries two groups per register through the
// recurrence and folds each group in-register, and both bodies add group
// sums and tail terms to out[n] in the same order, so every bit of the
// result is the same under either dispatch tag and on every host.
func LegendreMoments(zs, ws, out []float64) {
	if len(out) > maxMomentOrder+1 {
		panic("sphharm: LegendreMoments order above maxMomentOrder")
	}
	if len(ws) < len(zs) {
		panic("sphharm: LegendreMoments weight column too short")
	}
	moments(zs, ws, nil, out)
}

// LegendreMomentsTiles is LegendreMoments over consecutive tiles in one
// call: tile t is zs[ends[t-1]:ends[t]] (from 0 for t = 0) with the same
// range of ws, and its nL = len(out)/len(ends) moments go to
// out[t*nL:(t+1)*nL], bitwise LegendreMoments' for that tile. The engine
// calls it once per primary over its touched tiles, so the vector body can
// carry pairs of neighbouring tiles through the recurrence side by side.
func LegendreMomentsTiles(zs, ws []float64, ends []int32, out []float64) {
	if len(ends) == 0 || len(out)%len(ends) != 0 || len(out)/len(ends) > maxMomentOrder+1 {
		panic("sphharm: LegendreMomentsTiles needs ends and at most maxMomentOrder+1 moments per tile")
	}
	beg := int32(0)
	for _, e := range ends {
		if e < beg || int(e) > len(zs) {
			panic("sphharm: LegendreMomentsTiles tile ends out of order or past zs")
		}
		beg = e
	}
	if len(ws) < len(zs) {
		panic("sphharm: LegendreMomentsTiles weight column too short")
	}
	moments(zs, ws, ends, out)
}

// legendreMomentsTilesGeneric is the pure-Go body of LegendreMoments (ends
// nil: one tile, all of zs) and LegendreMomentsTiles.
func legendreMomentsTilesGeneric(zs, ws []float64, ends []int32, out []float64) {
	if ends == nil {
		legendreMomentsGeneric(zs, ws, out)
		return
	}
	nL, beg := len(out)/len(ends), int32(0)
	for t, e := range ends {
		legendreMomentsGeneric(zs[beg:e], ws[beg:e], out[t*nL:(t+1)*nL])
		beg = e
	}
}

// legendreMomentsGeneric is the pure-Go body of one tile. Every
// product is rounded on its own (the float64 conversions), so no host fuses
// a multiply into the subtract.
func legendreMomentsGeneric(zs, ws, out []float64) {
	clear(out)
	if len(out) == 0 {
		return
	}
	ws = ws[:len(zs)]
	a, b := momentA[:len(out)], momentB[:len(out)]
	j := 0
	for ; j+4 <= len(zs); j += 4 {
		z0, z1, z2, z3 := zs[j], zs[j+1], zs[j+2], zs[j+3]
		q0, q1 := float64(ws[j]*ws[j]), float64(ws[j+1]*ws[j+1])
		q2, q3 := float64(ws[j+2]*ws[j+2]), float64(ws[j+3]*ws[j+3])
		out[0] += (q0 + q1) + (q2 + q3)
		var p0, p1, p2, p3 float64
		for n := 1; n < len(out); n++ {
			an, bn := a[n], b[n]
			r0 := float64(an*z0*q0) - float64(bn*p0)
			r1 := float64(an*z1*q1) - float64(bn*p1)
			r2 := float64(an*z2*q2) - float64(bn*p2)
			r3 := float64(an*z3*q3) - float64(bn*p3)
			out[n] += (r0 + r1) + (r2 + r3)
			p0, p1, p2, p3 = q0, q1, q2, q3
			q0, q1, q2, q3 = r0, r1, r2, r3
		}
	}
	for ; j < len(zs); j++ {
		z := zs[j]
		p, q := 0.0, float64(ws[j]*ws[j])
		out[0] += q
		for n := 1; n < len(out); n++ {
			r := float64(a[n]*z*q) - float64(b[n]*p)
			p, q = q, r
			out[n] += r
		}
	}
}
