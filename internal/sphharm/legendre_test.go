package sphharm

import (
	"math"
	"math/rand"
	"testing"
)

func TestLegendrePLowOrders(t *testing.T) {
	xs := []float64{-1, -0.7, -0.3, 0, 0.25, 0.5, 0.9, 1}
	for _, x := range xs {
		want := []float64{
			1,
			x,
			(3*x*x - 1) / 2,
			(5*x*x*x - 3*x) / 2,
			(35*x*x*x*x - 30*x*x + 3) / 8,
			(63*math.Pow(x, 5) - 70*x*x*x + 15*x) / 8,
		}
		for l, w := range want {
			if got := LegendreP(l, x); math.Abs(got-w) > 1e-12 {
				t.Errorf("P_%d(%v) = %v, want %v", l, x, got, w)
			}
		}
	}
}

func TestLegendrePAtOne(t *testing.T) {
	// P_l(1) = 1 and P_l(-1) = (-1)^l for all l.
	for l := 0; l <= 15; l++ {
		if got := LegendreP(l, 1); math.Abs(got-1) > 1e-12 {
			t.Errorf("P_%d(1) = %v", l, got)
		}
		want := 1.0
		if l%2 == 1 {
			want = -1
		}
		if got := LegendreP(l, -1); math.Abs(got-want) > 1e-12 {
			t.Errorf("P_%d(-1) = %v, want %v", l, got, want)
		}
	}
}

func TestLegendreAllMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	out := make([]float64, 13)
	for i := 0; i < 100; i++ {
		x := rng.Float64()*2 - 1
		LegendreAll(12, x, out)
		for l := 0; l <= 12; l++ {
			if math.Abs(out[l]-LegendreP(l, x)) > 1e-12 {
				t.Fatalf("LegendreAll[%d](%v) = %v, scalar %v", l, x, out[l], LegendreP(l, x))
			}
		}
	}
}

func TestLegendreOrthogonality(t *testing.T) {
	// integral_{-1}^{1} P_l P_l' dx = 2/(2l+1) delta_{ll'}; trapezoid rule.
	const n = 20000
	for l := 0; l <= 6; l++ {
		for lp := 0; lp <= 6; lp++ {
			sum := 0.0
			for i := 0; i <= n; i++ {
				x := -1 + 2*float64(i)/n
				w := 1.0
				if i == 0 || i == n {
					w = 0.5
				}
				sum += w * LegendreP(l, x) * LegendreP(lp, x)
			}
			sum *= 2.0 / n
			want := 0.0
			if l == lp {
				want = 2 / float64(2*l+1)
			}
			if math.Abs(sum-want) > 1e-5 {
				t.Errorf("<P_%d, P_%d> = %v, want %v", l, lp, sum, want)
			}
		}
	}
}

func TestAssociatedLegendreKnownValues(t *testing.T) {
	// Condon–Shortley convention: P_1^1(x) = -sqrt(1-x^2),
	// P_2^1(x) = -3x sqrt(1-x^2), P_2^2(x) = 3(1-x^2),
	// P_3^3(x) = -15 (1-x^2)^{3/2}.
	xs := []float64{-0.9, -0.5, 0, 0.3, 0.8}
	for _, x := range xs {
		s := math.Sqrt(1 - x*x)
		cases := []struct {
			l, m int
			want float64
		}{
			{1, 0, x},
			{1, 1, -s},
			{2, 0, (3*x*x - 1) / 2},
			{2, 1, -3 * x * s},
			{2, 2, 3 * (1 - x*x)},
			{3, 3, -15 * s * s * s},
		}
		for _, c := range cases {
			if got := AssociatedLegendreP(c.l, c.m, x); math.Abs(got-c.want) > 1e-12 {
				t.Errorf("P_%d^%d(%v) = %v, want %v", c.l, c.m, x, got, c.want)
			}
		}
	}
}

func TestAssociatedLegendreMZeroMatchesLegendre(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 50; i++ {
		x := rng.Float64()*2 - 1
		for l := 0; l <= 10; l++ {
			if math.Abs(AssociatedLegendreP(l, 0, x)-LegendreP(l, x)) > 1e-10 {
				t.Fatalf("P_%d^0(%v) != P_%d(%v)", l, x, l, x)
			}
		}
	}
}

func TestYlmNormKnownValues(t *testing.T) {
	cases := []struct {
		l, m int
		want float64
	}{
		{0, 0, math.Sqrt(1 / (4 * math.Pi))},
		{1, 0, math.Sqrt(3 / (4 * math.Pi))},
		{1, 1, math.Sqrt(3 / (8 * math.Pi))},
	}
	for _, c := range cases {
		if got := ylmNorm(c.l, c.m); math.Abs(got-c.want) > 1e-14 {
			t.Errorf("N_%d%d = %v, want %v", c.l, c.m, got, c.want)
		}
	}
	// N_22 = sqrt(5/(4pi) * (0)!/(4)!) = sqrt(5/(96 pi))
	if got, want := ylmNorm(2, 2), math.Sqrt(5/(96*math.Pi)); math.Abs(got-want) > 1e-14 {
		t.Errorf("N_22 = %v, want %v", got, want)
	}
}

// binomial returns C(n, k) as a float64: the tests' binomial expansion of
// (x+iy)^m (directSums) is the oracle the kernel's running power is checked
// against.
func binomial(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	c := 1.0
	for i := 0; i < k; i++ {
		c = c * float64(n-i) / float64(i+1)
	}
	return c
}

func TestBinomial(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{0, 0, 1}, {5, 0, 1}, {5, 5, 1}, {5, 2, 10}, {10, 3, 120},
		{5, 6, 0}, {5, -1, 0},
	}
	for _, c := range cases {
		if got := binomial(c.n, c.k); got != c.want {
			t.Errorf("C(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
}

// alpNumeric is an independent value-level oracle for P_l^m (Condon–Shortley)
// using the standard upward recurrence evaluated in floating point. It never
// touches the coefficient-level strippedALP machinery.
func alpNumeric(l, m int, x float64) float64 {
	pmm := 1.0
	s := math.Sqrt(1 - x*x)
	for i := 1; i <= m; i++ {
		pmm *= -float64(2*i-1) * s
	}
	if l == m {
		return pmm
	}
	pm1 := x * float64(2*m+1) * pmm
	if l == m+1 {
		return pm1
	}
	for n := m + 2; n <= l; n++ {
		p := (float64(2*n-1)*x*pm1 - float64(n-1+m)*pmm) / float64(n-m)
		pmm, pm1 = pm1, p
	}
	return pm1
}

func TestStrippedALPMatchesAssociated(t *testing.T) {
	// tildeP * (1-x^2)^{m/2} must equal P_l^m for every (l, m), checked
	// against an independent numeric recurrence.
	rng := rand.New(rand.NewSource(5))
	for l := 0; l <= 10; l++ {
		for m := 0; m <= l; m++ {
			c := strippedALP(l, m)
			if len(c) != l-m+1 {
				t.Fatalf("strippedALP(%d,%d) degree %d, want %d", l, m, len(c)-1, l-m)
			}
			for i := 0; i < 20; i++ {
				x := rng.Float64()*1.8 - 0.9
				poly := 0.0
				for j := len(c) - 1; j >= 0; j-- {
					poly = poly*x + c[j]
				}
				got := poly * math.Pow(1-x*x, float64(m)/2)
				want := alpNumeric(l, m, x)
				if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
					t.Fatalf("stripped P_%d^%d(%v): %v vs %v", l, m, x, got, want)
				}
				got2 := AssociatedLegendreP(l, m, x)
				if math.Abs(got2-want) > 1e-9*(1+math.Abs(want)) {
					t.Fatalf("AssociatedLegendreP_%d^%d(%v): %v vs %v", l, m, x, got2, want)
				}
			}
		}
	}
}
