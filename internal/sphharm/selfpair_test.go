package sphharm

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// evalSeries evaluates a Legendre series at z.
func evalSeries(terms []LegendreTerm, z float64) float64 {
	var s float64
	for _, tm := range terms {
		s += tm.C * LegendreP(int(tm.L), z)
	}
	return s
}

// TestSelfProductMatchesEvalPoint pins the Gaunt linearisation against the
// independent polynomial-table oracle: for every canonical channel the real
// series reproduces Y_l1m conj(Y_l2m), whose imaginary part vanishes.
func TestSelfProductMatchesEvalPoint(t *testing.T) {
	const lmax = 10
	tab := NewYlmTable(lmax, nil)
	scratch := make([]float64, tab.Mono.Len())
	y := make([]complex128, PairCount(lmax))
	rng := rand.New(rand.NewSource(31))
	var worst float64
	for i := 0; i < 50; i++ {
		x, yy, z := randUnit(rng)
		tab.EvalPoint(x, yy, z, scratch, y)
		for l2 := 0; l2 <= lmax; l2++ {
			for l1 := 0; l1 <= l2; l1++ {
				for m := 0; m <= l1; m++ {
					want := y[PairIndex(l1, m)] * cmplx.Conj(y[PairIndex(l2, m)])
					got := evalSeries(SelfProduct(l1, l2, m), z)
					d := math.Abs(got - real(want))
					worst = math.Max(worst, d)
					if d > 1e-12 {
						t.Fatalf("(%d,%d,%d) at z=%v: series %v, Y Y* %v", l1, l2, m, z, got, want)
					}
					if math.Abs(imag(want)) > 1e-13 {
						t.Fatalf("(%d,%d,%d): Y Y* has imaginary part %v", l1, l2, m, imag(want))
					}
				}
			}
		}
	}
	t.Logf("worst |series - Y Y*| = %.3g", worst)
}

// TestSelfProductAdditionTheorem is the closed-form check that needs no Y_lm
// evaluation: sum_m |Y_lm|^2 = (2l+1)/4pi, so the m-summed series is that
// constant at L = 0 and zero at every L > 0. Beyond the paper's LMax = 10 the
// log-factorial Racah sum behind Wigner3j loses digits to cancellation, so
// the bound loosens there.
func TestSelfProductAdditionTheorem(t *testing.T) {
	for l := 0; l <= 20; l++ {
		tol := 1e-12
		if l > 10 {
			tol = 1e-10
		}
		sum := make([]float64, 2*l+1)
		for m := -l; m <= l; m++ {
			for _, tm := range SelfProduct(l, l, m) {
				sum[tm.L] += tm.C
			}
		}
		want := float64(2*l+1) / (4 * math.Pi)
		if math.Abs(sum[0]-want) > tol {
			t.Errorf("l=%d: L=0 sum %v, want %v", l, sum[0], want)
		}
		for L := 1; L < len(sum); L++ {
			if math.Abs(sum[L]) > tol {
				t.Errorf("l=%d: L=%d sum %v, want 0", l, L, sum[L])
			}
		}
	}
}

// TestLegendreMomentsMatchesLegendreAll covers the four-pair body, the tail
// loop and the empty tile, against per-pair LegendreAll sums.
func TestLegendreMomentsMatchesLegendreAll(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, order := range []int{0, 1, 8, 20, 40} {
		for _, n := range []int{0, 1, 3, 4, 5, 8, 9, 1023} {
			zs := make([]float64, n)
			ws := make([]float64, n)
			for j := range zs {
				_, _, zs[j] = randUnit(rng)
				ws[j] = 0.5 + rng.Float64()
			}
			if n > 1 {
				zs[0], zs[1] = 1, -1 // recurrence endpoints
			}
			want := make([]float64, order+1)
			var scale float64
			p := make([]float64, order+1)
			for j := range zs {
				LegendreAll(order, zs[j], p)
				for k := range want {
					want[k] += ws[j] * ws[j] * p[k]
				}
				scale += ws[j] * ws[j]
			}
			got := make([]float64, order+1)
			for k := range got {
				got[k] = math.NaN() // out is overwritten, not accumulated into
			}
			LegendreMoments(zs, ws, got)
			for k := range want {
				if d := math.Abs(got[k] - want[k]); !(d <= 1e-13*math.Max(scale, 1)) {
					t.Errorf("order %d, n=%d: moment %d = %v, want %v", order, n, k, got[k], want[k])
				}
			}
		}
	}
	LegendreMoments(nil, nil, nil) // zero-length out is legal
}
