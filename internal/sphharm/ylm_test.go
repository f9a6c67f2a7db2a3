package sphharm

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func randUnit(rng *rand.Rand) (x, y, z float64) {
	for {
		x, y, z = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		n := math.Sqrt(x*x + y*y + z*z)
		if n > 1e-6 {
			return x / n, y / n, z / n
		}
	}
}

func TestPairIndex(t *testing.T) {
	l := 10
	seen := make(map[int]bool)
	for ll := 0; ll <= l; ll++ {
		for m := 0; m <= ll; m++ {
			i := PairIndex(ll, m)
			if seen[i] {
				t.Fatalf("duplicate pair index %d for (%d,%d)", i, ll, m)
			}
			seen[i] = true
		}
	}
	if len(seen) != PairCount(l) {
		t.Errorf("covered %d indices, want %d", len(seen), PairCount(l))
	}
	if PairCount(10) != 66 {
		t.Errorf("PairCount(10) = %d, want 66", PairCount(10))
	}
}

func TestYlmDirectKnownForms(t *testing.T) {
	// Explicit low-order harmonics (physics convention, Condon–Shortley).
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 100; i++ {
		theta := rng.Float64() * math.Pi
		phi := rng.Float64() * 2 * math.Pi
		st, ct := math.Sin(theta), math.Cos(theta)
		eip := cmplx.Exp(complex(0, phi))
		cases := []struct {
			l, m int
			want complex128
		}{
			{0, 0, complex(0.5*math.Sqrt(1/math.Pi), 0)},
			{1, 0, complex(0.5*math.Sqrt(3/math.Pi)*ct, 0)},
			{1, 1, complex(-0.5*math.Sqrt(3/(2*math.Pi))*st, 0) * eip},
			{1, -1, complex(0.5*math.Sqrt(3/(2*math.Pi))*st, 0) * cmplx.Conj(eip)},
			{2, 0, complex(0.25*math.Sqrt(5/math.Pi)*(3*ct*ct-1), 0)},
			{2, 1, complex(-0.5*math.Sqrt(15/(2*math.Pi))*st*ct, 0) * eip},
			{2, 2, complex(0.25*math.Sqrt(15/(2*math.Pi))*st*st, 0) * eip * eip},
		}
		for _, c := range cases {
			got := YlmDirect(c.l, c.m, theta, phi)
			if cmplx.Abs(got-c.want) > 1e-12 {
				t.Fatalf("Y_%d^%d(%v,%v) = %v, want %v", c.l, c.m, theta, phi, got, c.want)
			}
		}
	}
}

func TestYlmTableMatchesDirect(t *testing.T) {
	// EvalPoint (the monomials, then Alm) against the closed form, on a
	// table over its own monomial layout and over one of higher order.
	rng := rand.New(rand.NewSource(8))
	for _, c := range []struct{ l, monoL int }{{10, 10}, {6, 8}} {
		mono := NewMonomialTable(c.monoL)
		tab := NewYlmTable(c.l, mono)
		scratch := make([]float64, mono.Len())
		out := make([]complex128, PairCount(c.l))
		for i := 0; i < 200; i++ {
			x, y, z := randUnit(rng)
			theta := math.Acos(z)
			phi := math.Atan2(y, x)
			for j := range out {
				out[j] = complex(math.NaN(), math.NaN()) // every slot must be written
			}
			tab.EvalPoint(x, y, z, scratch, out)
			for l := 0; l <= c.l; l++ {
				for m := 0; m <= l; m++ {
					got := out[PairIndex(l, m)]
					want := YlmDirect(l, m, theta, phi)
					if cmplx.Abs(got-want) > 1e-10 {
						t.Fatalf("L=%d (layout %d) table Y_%d^%d at (%v,%v,%v) = %v, want %v",
							c.l, c.monoL, l, m, x, y, z, got, want)
					}
				}
			}
		}
	}
}

func TestNegMSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 100; i++ {
		x, y, z := randUnit(rng)
		theta := math.Acos(z)
		phi := math.Atan2(y, x)
		for l := 0; l <= 6; l++ {
			for m := 1; m <= l; m++ {
				pos := YlmDirect(l, m, theta, phi)
				neg := YlmDirect(l, -m, theta, phi)
				if cmplx.Abs(NegM(m, pos)-neg) > 1e-12 {
					t.Fatalf("NegM mismatch l=%d m=%d", l, m)
				}
			}
		}
	}
}

func TestAdditionTheorem(t *testing.T) {
	// sum_{m=-l}^{l} Y_lm(a) Y*_lm(b) = (2l+1)/(4 pi) P_l(a.b).
	// This identity is exactly what converts a_lm products into the
	// isotropic multipoles (Sec. 2.2), so it anchors the whole pipeline.
	const L = 10
	mono := NewMonomialTable(L)
	tab := NewYlmTable(L, mono)
	scratch := make([]float64, mono.Len())
	ya := make([]complex128, PairCount(L))
	yb := make([]complex128, PairCount(L))
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 100; i++ {
		ax, ay, az := randUnit(rng)
		bx, by, bz := randUnit(rng)
		tab.EvalPoint(ax, ay, az, scratch, ya)
		tab.EvalPoint(bx, by, bz, scratch, yb)
		dot := ax*bx + ay*by + az*bz
		for l := 0; l <= L; l++ {
			sum := real(ya[PairIndex(l, 0)] * cmplx.Conj(yb[PairIndex(l, 0)]))
			for m := 1; m <= l; m++ {
				sum += 2 * real(ya[PairIndex(l, m)]*cmplx.Conj(yb[PairIndex(l, m)]))
			}
			want := float64(2*l+1) / (4 * math.Pi) * LegendreP(l, dot)
			if math.Abs(sum-want) > 1e-10 {
				t.Fatalf("addition theorem fails at l=%d: %v vs %v", l, sum, want)
			}
		}
	}
}

func TestYlmOrthonormality(t *testing.T) {
	// Monte-Carlo integral over the sphere: <Y_lm, Y_l'm'> = delta delta.
	const L = 4
	mono := NewMonomialTable(L)
	tab := NewYlmTable(L, mono)
	scratch := make([]float64, mono.Len())
	out := make([]complex128, PairCount(L))
	rng := rand.New(rand.NewSource(99))
	const n = 400000
	sums := make([]complex128, PairCount(L)*PairCount(L))
	for i := 0; i < n; i++ {
		x, y, z := randUnit(rng)
		tab.EvalPoint(x, y, z, scratch, out)
		for a := 0; a < PairCount(L); a++ {
			for b := 0; b < PairCount(L); b++ {
				sums[a*PairCount(L)+b] += out[a] * cmplx.Conj(out[b])
			}
		}
	}
	norm := 4 * math.Pi / float64(n)
	for a := 0; a < PairCount(L); a++ {
		for b := 0; b < PairCount(L); b++ {
			got := sums[a*PairCount(L)+b] * complex(norm, 0)
			want := complex(0, 0)
			if a == b {
				want = 1
			}
			// Monte-Carlo tolerance.
			if cmplx.Abs(got-want) > 0.02 {
				t.Errorf("<%d|%d> = %v, want %v", a, b, got, want)
			}
		}
	}
}

func TestAlmLinearity(t *testing.T) {
	const L = 6
	mono := NewMonomialTable(L)
	tab := NewYlmTable(L, mono)
	rng := rand.New(rand.NewSource(4))
	m1 := make([]float64, mono.Len())
	m2 := make([]float64, mono.Len())
	msum := make([]float64, mono.Len())
	for i := range m1 {
		m1[i] = rng.NormFloat64()
		m2[i] = rng.NormFloat64()
		msum[i] = 2*m1[i] + 3*m2[i]
	}
	a1 := make([]complex128, PairCount(L))
	a2 := make([]complex128, PairCount(L))
	as := make([]complex128, PairCount(L))
	tab.Alm(m1, a1)
	tab.Alm(m2, a2)
	tab.Alm(msum, as)
	for i := range as {
		want := complex(2, 0)*a1[i] + complex(3, 0)*a2[i]
		if cmplx.Abs(as[i]-want) > 1e-9 {
			t.Fatalf("Alm not linear at %d: %v vs %v", i, as[i], want)
		}
	}
}

func TestNewYlmTableSharesMonoOrNil(t *testing.T) {
	mono := NewMonomialTable(8)
	tab := NewYlmTable(6, mono)
	if tab.Mono != mono {
		t.Error("table should share the provided monomial table")
	}
	tab2 := NewYlmTable(6, nil)
	if tab2.Mono == nil || tab2.Mono.L != 6 {
		t.Error("nil mono should construct a fresh table of matching order")
	}
}
