package sphharm

import "math"

// LegendreP evaluates the Legendre polynomial P_l(x) by the standard
// three-term recurrence. It is used by the isotropic 3PCF (the
// Slepian–Eisenstein 2015 basis, Sec. 2.2) and by the brute-force oracle.
func LegendreP(l int, x float64) float64 {
	switch l {
	case 0:
		return 1
	case 1:
		return x
	}
	pm2, pm1 := 1.0, x
	for n := 2; n <= l; n++ {
		p := (float64(2*n-1)*x*pm1 - float64(n-1)*pm2) / float64(n)
		pm2, pm1 = pm1, p
	}
	return pm1
}

// LegendreAll evaluates P_0(x)..P_l(x) into out (length l+1).
func LegendreAll(l int, x float64, out []float64) {
	out[0] = 1
	if l == 0 {
		return
	}
	out[1] = x
	for n := 2; n <= l; n++ {
		out[n] = (float64(float64(2*n-1)*x*out[n-1]) - float64(float64(n-1)*out[n-2])) / float64(n)
	}
}

// strippedALP returns the coefficients (in powers of z) of the polynomial
//
//	tildeP_l^m(z) = P_l^m(z) / (1-z^2)^(m/2),
//
// where P_l^m carries the Condon–Shortley phase (-1)^m. tildeP_l^m is a
// genuine polynomial of degree l-m with parity (-1)^(l-m). The returned
// slice c satisfies tildeP_l^m(z) = sum_j c[j] z^j, len(c) = l-m+1.
//
// Recurrences (the (1-z^2)^(m/2) factor divides out of each):
//
//	tildeP_m^m     = (-1)^m (2m-1)!!
//	tildeP_{m+1}^m = (2m+1) z tildeP_m^m
//	(l-m) tildeP_l^m = (2l-1) z tildeP_{l-1}^m - (l-1+m) tildeP_{l-2}^m
func strippedALP(l, m int) []float64 {
	if m < 0 || m > l {
		panic("sphharm: strippedALP requires 0 <= m <= l")
	}
	// tildeP_m^m: constant.
	pmm := []float64{1}
	for i := 1; i <= m; i++ {
		pmm[0] *= -float64(2*i - 1) // accumulate (-1)^m (2m-1)!!
	}
	if l == m {
		return pmm
	}
	// tildeP_{m+1}^m = (2m+1) z tildeP_m^m.
	pm1 := []float64{0, float64(2*m+1) * pmm[0]}
	if l == m+1 {
		return pm1
	}
	prev2, prev1 := pmm, pm1
	for n := m + 2; n <= l; n++ {
		cur := make([]float64, n-m+1)
		// (2n-1) z prev1
		for j, c := range prev1 {
			cur[j+1] += float64(float64(2*n-1) * c)
		}
		// - (n-1+m) prev2
		for j, c := range prev2 {
			cur[j] -= float64(float64(n-1+m) * c)
		}
		inv := 1 / float64(n-m)
		for j := range cur {
			cur[j] *= inv
		}
		prev2, prev1 = prev1, cur
	}
	return prev1
}

// AssociatedLegendreP evaluates P_l^m(x) (Condon–Shortley phase) for
// 0 <= m <= l and |x| <= 1. Used in tests as an independent cross-check of
// the polynomial tables.
func AssociatedLegendreP(l, m int, x float64) float64 {
	c := strippedALP(l, m)
	z := 0.0
	for j := len(c) - 1; j >= 0; j-- {
		z = z*x + c[j]
	}
	s := math.Pow(1-x*x, float64(m)/2)
	return z * s
}

// ylmNorm returns N_lm = sqrt((2l+1)/(4 pi) * (l-m)!/(l+m)!) for m >= 0.
func ylmNorm(l, m int) float64 {
	ratio := 1.0 // (l-m)!/(l+m)!
	for i := l - m + 1; i <= l+m; i++ {
		ratio /= float64(i)
	}
	return math.Sqrt(float64(2*l+1) / (4 * math.Pi) * ratio)
}
