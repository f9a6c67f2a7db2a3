package sphharm

import "math"

// logFact returns ln(n!) with a small cached table (n up to a few hundred
// suffices for the multipole orders in play).
var logFactCache = func() []float64 {
	c := make([]float64, 301)
	for i := 2; i < len(c); i++ {
		c[i] = c[i-1] + math.Log(float64(i))
	}
	return c
}()

func logFact(n int) float64 {
	if n < 0 {
		panic("sphharm: factorial of negative number")
	}
	return logFactCache[n]
}

// Wigner3j returns the Wigner 3j symbol
//
//	( j1 j2 j3 )
//	( m1 m2 m3 )
//
// for integer arguments, evaluated with the Racah formula using
// log-factorials for numerical stability. It returns 0 whenever the
// selection rules (m1+m2+m3 = 0, triangle inequality, |mi| <= ji) are
// violated. The 3j symbols couple multipole orders in the survey-geometry
// edge correction of the 3PCF estimator (Slepian & Eisenstein 2015, the
// paper's ref. [31]).
func Wigner3j(j1, j2, j3, m1, m2, m3 int) float64 {
	if m1+m2+m3 != 0 {
		return 0
	}
	if j3 < abs(j1-j2) || j3 > j1+j2 {
		return 0
	}
	if abs(m1) > j1 || abs(m2) > j2 || abs(m3) > j3 {
		return 0
	}
	// Triangle coefficient (log).
	logDelta := logFact(j1+j2-j3) + logFact(j1-j2+j3) + logFact(-j1+j2+j3) - logFact(j1+j2+j3+1)
	logPre := float64(0.5 * (logDelta +
		logFact(j1+m1) + logFact(j1-m1) +
		logFact(j2+m2) + logFact(j2-m2) +
		logFact(j3+m3) + logFact(j3-m3)))

	kmin := max(0, j2-j3-m1, j1-j3+m2)
	kmax := min(j1+j2-j3, j1-m1, j2+m2)
	sum := 0.0
	for k := kmin; k <= kmax; k++ {
		logTerm := logPre - (logFact(k) + logFact(j1+j2-j3-k) + logFact(j1-m1-k) +
			logFact(j2+m2-k) + logFact(j3-j2+m1+k) + logFact(j3-j1-m2+k))
		term := math.Exp(logTerm)
		if k%2 == 1 {
			term = -term
		}
		sum += term
	}
	if (j1-j2-m3)%2 != 0 {
		sum = -sum
	}
	return sum
}

// Wigner3j000 returns the 3j symbol with all m = 0, which vanishes unless
// j1+j2+j3 is even. This is the coupling that appears in the isotropic
// edge-correction matrix.
func Wigner3j000(j1, j2, j3 int) float64 {
	if (j1+j2+j3)%2 != 0 {
		return 0
	}
	return Wigner3j(j1, j2, j3, 0, 0, 0)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
