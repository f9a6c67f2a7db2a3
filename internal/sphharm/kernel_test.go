package sphharm

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestMonomialCount(t *testing.T) {
	cases := []struct{ l, want int }{
		{0, 1}, {1, 4}, {2, 9}, {3, 16}, {10, 121},
	}
	for _, c := range cases {
		tab := NewMonomialTable(c.l)
		if got := tab.Len(); got != c.want {
			t.Errorf("NewMonomialTable(%d).Len() = %d, want %d", c.l, got, c.want)
		}
		if got := AccumulatorLen(tab); got != c.want*Lanes {
			t.Errorf("AccumulatorLen(l=%d) = %d, want %d", c.l, got, c.want*Lanes)
		}
	}
}

// basisFn names one sum of the kernel's basis: the real (or imaginary) part
// of w (x+iy)^m z^j.
type basisFn struct {
	m, j int
	im   bool
}

// basisLayout enumerates the basis in the documented MonomialTable order,
// independently of MonomialTable.rows.
func basisLayout(l int) []basisFn {
	var out []basisFn
	for j := 0; j <= l; j++ {
		out = append(out, basisFn{0, j, false})
	}
	for m := 1; m <= l; m++ {
		for _, im := range []bool{false, true} {
			for j := 0; j <= l-m; j++ {
				out = append(out, basisFn{m, j, im})
			}
		}
	}
	return out
}

func TestMonomialTableOrderAndIndex(t *testing.T) {
	for _, l := range []int{0, 1, 5, 10} {
		tab := NewMonomialTable(l)
		layout := basisLayout(l)
		if tab.Len() != len(layout) {
			t.Fatalf("l=%d: Len = %d, want %d", l, tab.Len(), len(layout))
		}
		for i, f := range layout {
			re, im := tab.rows(f.m)
			got := re + f.j
			if f.im {
				got = im + f.j
			}
			if got != i {
				t.Fatalf("l=%d: sum (m=%d, j=%d, im=%v) at %d, want %d", l, f.m, f.j, f.im, got, i)
			}
		}
		if _, im := tab.rows(0); im >= 0 {
			t.Fatalf("l=%d: the m = 0 row has an Im row at %d", l, im)
		}
	}
}

func TestMonomialEvaluate(t *testing.T) {
	tab := NewMonomialTable(6)
	out := make([]float64, tab.Len())
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		x, y, z := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		tab.evaluate(x, y, z, out)
		for i, f := range basisLayout(6) {
			v := cmplx.Pow(complex(x, y), complex(float64(f.m), 0)) * complex(math.Pow(z, float64(f.j)), 0)
			want := real(v)
			if f.im {
				want = imag(v)
			}
			if math.Abs(out[i]-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("sum %d (m=%d, j=%d, im=%v) = %v, want %v", i, f.m, f.j, f.im, out[i], want)
			}
		}
	}
}

// directSums computes the basis sums the obvious O(n * len) way: (x+iy)^m
// expanded binomially into x^(m-a) y^a with math.Pow.
func directSums(l int, xs, ys, zs, ws []float64) []float64 {
	layout := basisLayout(l)
	out := make([]float64, len(layout))
	for j := range xs {
		for i, f := range layout {
			var v float64
			a0 := 0
			if f.im {
				a0 = 1
			}
			for a := a0; a <= f.m; a += 2 { // i^a = (-1)^(a/2) times 1 or i
				term := binomial(f.m, a) * math.Pow(xs[j], float64(f.m-a)) * math.Pow(ys[j], float64(a))
				if (a/2)%2 == 1 {
					term = -term
				}
				v += term
			}
			out[i] += ws[j] * v * math.Pow(zs[j], float64(f.j))
		}
	}
	return out
}

func randBucket(rng *rand.Rand, n int) (xs, ys, zs, ws []float64) {
	xs = make([]float64, n)
	ys = make([]float64, n)
	zs = make([]float64, n)
	ws = make([]float64, n)
	for j := 0; j < n; j++ {
		x, y, z := randUnit(rng)
		xs[j], ys[j], zs[j] = x, y, z
		ws[j] = rng.Float64()*2 - 0.5 // include negative weights (randoms)
	}
	return
}

// eachDispatch runs f under every lane dispatch tag this host has, restoring
// the binding in effect afterwards.
func eachDispatch(t *testing.T, f func(tag string)) {
	t.Helper()
	was := LaneDispatch() == "avx512"
	defer SetLaneDispatch(was)
	for _, vector := range []bool{false, true} {
		if SetLaneDispatch(vector) != vector {
			continue // no vector bodies on this host
		}
		f(LaneDispatch())
	}
}

func TestKernelAccumulateMatchesDirect(t *testing.T) {
	// The oracle that shares none of the kernel's tables: AccumulateTile ->
	// Reduce -> AlmRI must equal sum_j w_j Y_lm(rhat_j) with Y_lm from the
	// closed form in spherical angles, on random unit vectors and on the
	// degenerate ones (poles, equator, x = 0, y = 0), for tile lengths that
	// hit the masked tail, the register-resident path and the quad path.
	const maxL = 12
	degenerate := [][3]float64{
		{0, 0, 1}, {0, 0, -1},
		{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0.6, -0.8, 0},
		{0, 0.6, 0.8}, {0, -0.8, -0.6}, {0.8, 0, -0.6}, {-0.6, 0, 0.8},
	}
	rng := rand.New(rand.NewSource(6))
	for ti, n := range []int{0, 1, 7, 8, 9, 31, 32, 33, 127, 128, 129, 1000} {
		xs, ys, zs, ws := randBucket(rng, n)
		for j := 0; j < n; j += 3 {
			d := degenerate[(ti+j/3)%len(degenerate)]
			xs[j], ys[j], zs[j] = d[0], d[1], d[2]
		}
		want := make([]complex128, PairCount(maxL))
		sumAbsW := 0.0
		for j := range xs {
			theta, phi := math.Acos(zs[j]), math.Atan2(ys[j], xs[j])
			for l := 0; l <= maxL; l++ {
				for m := 0; m <= l; m++ {
					want[PairIndex(l, m)] += complex(ws[j], 0) * YlmDirect(l, m, theta, phi)
				}
			}
			sumAbsW += math.Abs(ws[j])
		}
		eachDispatch(t, func(tag string) {
			for _, L := range []int{0, 1, 4, 10, maxL} {
				mono := NewMonomialTable(L)
				ytab := NewYlmTable(L, mono)
				acc := make([]float64, AccumulatorLen(mono))
				NewKernel(mono, 128).AccumulateTile(xs, ys, zs, ws, acc)
				sums := make([]float64, mono.Len())
				Reduce(acc, sums)
				re := make([]float64, PairCount(L))
				im := make([]float64, PairCount(L))
				ytab.AlmRI(sums, re, im)
				for i := range re {
					if d := cmplx.Abs(complex(re[i], im[i]) - want[i]); d > 1e-12*sumAbsW {
						t.Fatalf("%s L=%d n=%d a_lm[%d]: %v vs %v (off by %.3g, sum|w| = %.3g)",
							tag, L, n, i, complex(re[i], im[i]), want[i], d, sumAbsW)
					}
				}
			}
		})
	}
}

func TestKernelAccumulateIsAdditive(t *testing.T) {
	// Accumulating two tiles into one accumulator equals accumulating their
	// concatenation: the property per-bin accumulation across chunks relies
	// on (Sec. 3.3.1).
	const L = 6
	tab := NewMonomialTable(L)
	k := NewKernel(tab, 256)
	rng := rand.New(rand.NewSource(61))
	xs, ys, zs, ws := randBucket(rng, 200)

	eachDispatch(t, func(tag string) {
		accSplit := make([]float64, AccumulatorLen(tab))
		k.AccumulateTile(xs[:77], ys[:77], zs[:77], ws[:77], accSplit)
		k.AccumulateTile(xs[77:], ys[77:], zs[77:], ws[77:], accSplit)
		split := make([]float64, tab.Len())
		Reduce(accSplit, split)

		accAll := make([]float64, AccumulatorLen(tab))
		k.AccumulateTile(xs, ys, zs, ws, accAll)
		all := make([]float64, tab.Len())
		Reduce(accAll, all)

		for i := range all {
			if math.Abs(all[i]-split[i]) > 1e-9*(1+math.Abs(all[i])) {
				t.Fatalf("%s sum %d: split %v vs whole %v", tag, i, split[i], all[i])
			}
		}
	})
}

func TestKernelTileMatchesDirect(t *testing.T) {
	// The tile kernel must agree with the O(n * len) oracle for tiles well
	// past the chunk capacity (internal chunking exercised at 128).
	const L = 10
	tab := NewMonomialTable(L)
	k := NewKernel(tab, 128)
	rng := rand.New(rand.NewSource(19))
	for _, n := range []int{1, 7, 8, 127, 128, 129, 300, 1000} {
		xs, ys, zs, ws := randBucket(rng, n)
		want := directSums(L, xs, ys, zs, ws)
		eachDispatch(t, func(tag string) {
			acc := make([]float64, AccumulatorLen(tab))
			k.AccumulateTile(xs, ys, zs, ws, acc)
			got := make([]float64, tab.Len())
			Reduce(acc, got)
			for i := range got {
				if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
					t.Fatalf("%s n=%d sum %d: %v vs %v", tag, n, i, got[i], want[i])
				}
			}
		})
	}
}

func TestKernelDispatchAgreesWithGeneric(t *testing.T) {
	// The AVX-512 ladder and the portable one add each lane's terms in the
	// same chains and contract the same multiply-adds into FMAs: every
	// accumulator value is bitwise equal, for register-resident chunks, quads,
	// blocks after them and every tail.
	if !HasAVX512() {
		t.Skip("no vector path on this host; dispatch is the generic code")
	}
	rng := rand.New(rand.NewSource(41))
	for _, L := range []int{1, 4, 10} {
		tab := NewMonomialTable(L)
		for _, n := range []int{1, 7, 31, 32, 33, 63, 100, 129, 1000} {
			xs, ys, zs, ws := randBucket(rng, n)
			accs := map[string][]float64{}
			eachDispatch(t, func(tag string) {
				accs[tag] = make([]float64, AccumulatorLen(tab))
				NewKernel(tab, 128).AccumulateTile(xs, ys, zs, ws, accs[tag])
			})
			for i, g := range accs["generic"] {
				if math.Float64bits(accs["avx512"][i]) != math.Float64bits(g) {
					t.Fatalf("L=%d n=%d acc[%d]: avx512 %v vs generic %v (not bitwise)", L, n, i, accs["avx512"][i], g)
				}
			}
		}
	}
}

func TestKernelTileChunkingInvariance(t *testing.T) {
	// Consuming one tile with different chunk capacities only regroups the
	// lane sums; the reduced sums must agree to rounding.
	const L = 8
	tab := NewMonomialTable(L)
	rng := rand.New(rand.NewSource(29))
	xs, ys, zs, ws := randBucket(rng, 333)
	eachDispatch(t, func(tag string) {
		ref := make([]float64, tab.Len())
		acc := make([]float64, AccumulatorLen(tab))
		NewKernel(tab, 333).AccumulateTile(xs, ys, zs, ws, acc)
		Reduce(acc, ref)
		for _, cap := range []int{1, 8, 13, 128, 1024} {
			acc := make([]float64, AccumulatorLen(tab))
			NewKernel(tab, cap).AccumulateTile(xs, ys, zs, ws, acc)
			got := make([]float64, tab.Len())
			Reduce(acc, got)
			for i := range got {
				if math.Abs(got[i]-ref[i]) > 1e-9*(1+math.Abs(ref[i])) {
					t.Fatalf("%s cap=%d sum %d: %v vs %v", tag, cap, i, got[i], ref[i])
				}
			}
		}
	})
}

// mustPanic fails the test unless f panics.
func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func TestKernelTilePanicsOnMismatch(t *testing.T) {
	tab := NewMonomialTable(4)
	k := NewKernel(tab, 16)
	acc := make([]float64, AccumulatorLen(tab))
	mustPanic(t, "length mismatch", func() {
		k.AccumulateTile(make([]float64, 3), make([]float64, 2), make([]float64, 3), make([]float64, 3), acc)
	})
	mustPanic(t, "bad accumulator", func() {
		k.AccumulateTile(make([]float64, 3), make([]float64, 3), make([]float64, 3), make([]float64, 3), acc[:5])
	})
}

func TestKernelEmptyBucketNoop(t *testing.T) {
	tab := NewMonomialTable(4)
	k := NewKernel(tab, 16)
	eachDispatch(t, func(tag string) {
		acc := make([]float64, AccumulatorLen(tab))
		k.AccumulateTile(nil, nil, nil, nil, acc)
		for i, v := range acc {
			if v != 0 {
				t.Fatalf("%s: accumulator touched at %d: %v", tag, i, v)
			}
		}
	})
}

func TestKernelPanicsOnMismatch(t *testing.T) {
	mustPanic(t, "negative order", func() { NewMonomialTable(-1) })
	mustPanic(t, "zero capacity", func() { NewKernel(NewMonomialTable(4), 0) })
	mustPanic(t, "Reduce lengths", func() { Reduce(make([]float64, 3*Lanes), make([]float64, 2)) })
	mustPanic(t, "ReduceClear lengths", func() { ReduceClear(make([]float64, 3*Lanes), make([]float64, 4)) })
}

func TestReduceClearMatchesReduceThenZero(t *testing.T) {
	// The fused reduce-and-clear must produce Reduce's sums bitwise and leave
	// the accumulator all +0, under both lane bodies.
	eachDispatch(t, func(tag string) {
		rng := rand.New(rand.NewSource(98))
		for _, n := range []int{1, 2, 3, 7, 8, 25, 121} {
			acc := make([]float64, n*Lanes)
			for i := range acc {
				acc[i] = rng.NormFloat64() * math.Exp(20*rng.NormFloat64())
			}
			want := make([]float64, n)
			Reduce(acc, want)
			got := make([]float64, n)
			ReduceClear(acc, got)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s n=%d out[%d]: %v vs %v (not bitwise)", tag, n, i, got[i], want[i])
				}
			}
			for i, v := range acc {
				if math.Float64bits(v) != 0 {
					t.Fatalf("%s n=%d acc[%d] = %v after ReduceClear", tag, n, i, v)
				}
			}
		}
	})
}

func TestFlopsPerPair(t *testing.T) {
	// Lane folds 2l^2+2l+1, rotations 2+6(l-1), z powers l-1.
	for _, c := range []struct{ l, want int }{{0, 1}, {1, 7}, {2, 22}, {4, 64}, {10, 286}} {
		if got := FlopsPerPair(c.l); got != c.want {
			t.Errorf("FlopsPerPair(%d) = %d, want %d", c.l, got, c.want)
		}
	}
}

func TestAlmFromKernelMatchesPointwise(t *testing.T) {
	// End-to-end: kernel sums -> Alm must equal the sum of pointwise Y_lm
	// over the tile. This is the identity the whole algorithm rests on:
	// a_lm = sum_i w_i Y_lm(rhat_i).
	const L = 10
	mono := NewMonomialTable(L)
	ytab := NewYlmTable(L, mono)
	k := NewKernel(mono, 128)
	rng := rand.New(rand.NewSource(30))
	xs, ys, zs, ws := randBucket(rng, 100)

	want := make([]complex128, PairCount(L))
	scratch := make([]float64, mono.Len())
	point := make([]complex128, PairCount(L))
	for j := range xs {
		ytab.EvalPoint(xs[j], ys[j], zs[j], scratch, point)
		for i := range want {
			want[i] += complex(ws[j], 0) * point[i]
		}
	}
	eachDispatch(t, func(tag string) {
		acc := make([]float64, AccumulatorLen(mono))
		k.AccumulateTile(xs, ys, zs, ws, acc)
		sums := make([]float64, mono.Len())
		Reduce(acc, sums)
		got := make([]complex128, PairCount(L))
		ytab.Alm(sums, got)
		for i := range got {
			d := got[i] - want[i]
			if math.Hypot(real(d), imag(d)) > 1e-9*(1+math.Hypot(real(want[i]), imag(want[i]))) {
				t.Fatalf("%s a_lm[%d]: %v vs %v", tag, i, got[i], want[i])
			}
		}
	})
}

// ladderNs are the chunk lengths the ladder pins sweep: every n to 40 —
// each register-resident length (n < 32: one to four vectors, so the
// 8/9, 16/17 and 24/25 boundaries between the vector-count bodies, and
// every tail), the quad path's 32/33 entry and its tails — then longer
// chunks with blocks after the quads, and tiles of several chunks.
var ladderNs = func() []int {
	var ns []int
	for n := 0; n <= 40; n++ {
		ns = append(ns, n)
	}
	return append(ns, 63, 64, 65, 100, 128, 129, 300, 1023)
}()

func TestLadderMatchesRowsBitwise(t *testing.T) {
	// The one-call-per-chunk ladder, z-power hoist included, must be
	// bit-identical to the row-by-row path (one mulCols per hoisted column,
	// one rotate per running-power update, one rowLanes per row) under each
	// dispatch — the fused vector body performs the same operations in the
	// same order, the same four chains per lane group, the same FMAs, the
	// same fold — for every chunk shape (ladderNs): register-resident
	// (n < 32, every vector count and tail), with quads, blocks after them and tails, and
	// across AccumulateTile's chunking, at every row height (order l's rows
	// hold l+1 lane groups down to 1), folding twice into an accumulator
	// that is not zero. A second pass folds -0 weights into an accumulator
	// holding -0, where only the fold's +0 decides the sign.
	negZero := math.Copysign(0, -1)
	eachDispatch(t, func(tag string) {
		rng := rand.New(rand.NewSource(99))
		for _, zeros := range []bool{false, true} {
			for _, l := range []int{0, 1, 2, 3, 4, 10, 20} {
				tab := NewMonomialTable(l)
				k := NewKernel(tab, 128)
				rows := NewKernel(tab, 128)
				for _, n := range ladderNs {
					xs, ys, zs, ws := randBucket(rng, n)
					got := make([]float64, AccumulatorLen(tab))
					for i := range got {
						got[i] = rng.NormFloat64()
					}
					if zeros {
						for j := range ws {
							ws[j] = negZero
						}
						for i := range got {
							got[i] = negZero
						}
					}
					want := append([]float64(nil), got...)
					for rep := 0; rep < 2; rep++ {
						k.AccumulateTile(xs, ys, zs, ws, got)
						bound := ladder
						ladder = ladderRows
						rows.AccumulateTile(xs, ys, zs, ws, want)
						ladder = bound
					}
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s zeros=%v l=%d n=%d acc[%d]: ladder %v vs rows %v (not bitwise)",
								tag, zeros, l, n, i, got[i], want[i])
						}
					}
				}
			}
		}
	})
}

// zetaNBs and zetaKs are the zeta tile shapes the bitwise pins sweep: every
// nb to 12 (each strip count and mask the vector bodies block into one or
// two row blocks, every block height), and 16-25, where rows split into
// balanced blocks and strips into several strip blocks, at K from one
// primary to a full commit unit.
var (
	zetaNBs = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 16, 17, 20, 24, 25}
	zetaKs  = []int{1, 2, 5, 21, 32, 64}
)

func TestZetaBatchMatchesPerPrimaryBlock(t *testing.T) {
	// ZetaBatch over K packed primaries must equal K sequential dense
	// per-primary updates (the generic body at k = 1, one primary's slab
	// rows at a time) bit for bit — every element sees the primaries in the
	// same order — for every nb strip/row shape and K, under each dispatch.
	eachDispatch(t, func(tag string) { testZetaBatchMatchesPerPrimary(t, tag) })
}

func TestZetaBatchStaysInBounds(t *testing.T) {
	// Every tile path — whole and masked strips, every block height — must
	// write only dst[0:nb*nb] and fold only the first k*2*nb slab words and
	// k weights into it: dst is cut from a sentinel-filled buffer, and the
	// slab and weight words past their extent are NaN, which a read feeding
	// a stored lane would carry into dst. (A read into a discarded lane is
	// TestZetaBatchTouchesNothingPastItsOperands' job.)
	const pad = 40
	sentinel := math.Float64frombits(0x7ff4_dead_0000_beef) // a NaN payload no arithmetic makes
	eachDispatch(t, func(tag string) {
		rng := rand.New(rand.NewSource(94))
		for _, nb := range zetaNBs {
			for _, k := range zetaKs {
				n := k * 2 * nb
				a2 := make([]float64, n+pad)
				xy := make([]float64, n+pad)
				w := make([]float64, k+pad)
				for i := range a2 {
					a2[i], xy[i] = math.NaN(), math.NaN()
					if i < n {
						a2[i], xy[i] = rng.NormFloat64(), rng.NormFloat64()
					}
				}
				for i := range w {
					w[i] = math.NaN()
					if i < k {
						w[i] = rng.ExpFloat64()
					}
				}
				cbuf := make([]complex128, nb*nb+2*pad)
				rbuf := make([]float64, nb*nb+2*pad)
				for i := range cbuf {
					cbuf[i] = complex(sentinel, sentinel)
					rbuf[i] = sentinel
				}
				cdst := cbuf[pad : pad+nb*nb]
				rdst := rbuf[pad : pad+nb*nb]
				clear(cdst)
				clear(rdst)
				ZetaBatch(cdst, a2, xy, nb, k)
				ZetaBatchIso(rdst, a2, w, nb, k)
				for i := range rbuf {
					inside := i >= pad && i < pad+nb*nb
					c, r := cbuf[i], rbuf[i]
					switch {
					case inside && (math.IsNaN(real(c)) || math.IsNaN(imag(c)) || math.IsNaN(r)):
						t.Fatalf("%s nb=%d k=%d: dst[%d] = %v / %v read past the slab", tag, nb, k, i-pad, c, r)
					case !inside && (math.Float64bits(real(c)) != math.Float64bits(sentinel) ||
						math.Float64bits(imag(c)) != math.Float64bits(sentinel) ||
						math.Float64bits(r) != math.Float64bits(sentinel)):
						t.Fatalf("%s nb=%d k=%d: wrote %v / %v at dst offset %d", tag, nb, k, c, r, i-pad)
					}
				}
			}
		}
	})
}

func testZetaBatchMatchesPerPrimary(t *testing.T, tag string) {
	rng := rand.New(rand.NewSource(93))
	for _, nb := range zetaNBs {
		for _, k := range zetaKs {
			a2 := make([]float64, k*2*nb)
			xy := make([]float64, k*2*nb)
			for j := range a2 {
				a2[j] = rng.NormFloat64()
				xy[j] = rng.NormFloat64()
			}
			got := make([]complex128, nb*nb)
			want := make([]complex128, nb*nb)
			for i := range got {
				v := complex(rng.NormFloat64(), rng.NormFloat64())
				got[i] = v
				want[i] = v
			}
			ZetaBatch(got, a2, xy, nb, k)
			for a := 0; a < k; a++ {
				ao := a * 2 * nb
				zetaBatchGeneric(want, a2[ao:ao+2*nb], xy[ao:ao+2*nb], nb, 1)
			}
			for i := range want {
				if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
					math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
					t.Fatalf("%s nb=%d k=%d elem %d: %v vs %v (not bitwise)", tag, nb, k, i, got[i], want[i])
				}
			}
		}
	}
}

func TestZetaBatchIsoMatchesReference(t *testing.T) {
	// ZetaBatchIso over K packed split-half primaries must agree with the
	// scalar real update it compacts — x*re2 + y*im2 with the weighted leg
	// derived from the per-primary weight — for every nb strip/row shape
	// and K, under each dispatch.
	eachDispatch(t, func(tag string) { testZetaBatchIsoMatchesReference(t, tag) })
}

func testZetaBatchIsoMatchesReference(t *testing.T, tag string) {
	rng := rand.New(rand.NewSource(95))
	for _, nb := range []int{1, 2, 3, 4, 7, 8, 10, 16, 20} {
		for _, k := range []int{1, 2, 5, 31} {
			a2 := make([]float64, k*2*nb)
			w := make([]float64, k)
			for j := range a2 {
				a2[j] = rng.NormFloat64()
			}
			for j := range w {
				w[j] = rng.ExpFloat64()
			}
			got := make([]float64, nb*nb)
			want := make([]float64, nb*nb)
			for i := range got {
				v := rng.NormFloat64()
				got[i] = v
				want[i] = v
			}
			ZetaBatchIso(got, a2, w, nb, k)
			for a := 0; a < k; a++ {
				ao := a * 2 * nb
				for t1 := 0; t1 < nb; t1++ {
					x := w[a] * a2[ao+t1]
					y := w[a] * a2[ao+nb+t1]
					for t2 := 0; t2 < nb; t2++ {
						want[t1*nb+t2] += x*a2[ao+t2] + y*a2[ao+nb+t2]
					}
				}
			}
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
					t.Fatalf("%s nb=%d k=%d elem %d: %v vs %v", tag, nb, k, i, got[i], want[i])
				}
			}
		}
	}
}

func TestZetaBatchIsoDispatchAgreesWithGeneric(t *testing.T) {
	// Both zeta bodies round where their vector twins do — ZetaBatchIso's
	// weighted leg once, then two FMAs; ZetaBatch's x leg's FMA, then the y
	// leg's — so the dispatched and the portable bodies agree bit for bit on
	// every tile shape: whole and masked strips, each block height.
	if !HasAVX512() {
		t.Skip("no vector path on this host; dispatch is the generic code")
	}
	rng := rand.New(rand.NewSource(96))
	for _, nb := range zetaNBs {
		for _, k := range zetaKs {
			testZetaDispatchShape(t, rng, nb, k)
		}
	}
}

func testZetaDispatchShape(t *testing.T, rng *rand.Rand, nb, k int) {
	t.Helper()
	a2 := make([]float64, k*2*nb)
	xy := make([]float64, k*2*nb)
	w := make([]float64, k)
	for j := range a2 {
		a2[j] = rng.NormFloat64()
		xy[j] = rng.NormFloat64()
	}
	for j := range w {
		w[j] = rng.ExpFloat64()
	}
	got := make([]float64, nb*nb)
	want := make([]float64, nb*nb)
	zetaBatchIso(got, a2, w, nb, k)
	zetaBatchIsoGeneric(want, a2, w, nb, k)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("iso nb=%d k=%d elem %d: %v vs %v (not bitwise)", nb, k, i, got[i], want[i])
		}
	}
	cgot := make([]complex128, nb*nb)
	cwant := make([]complex128, nb*nb)
	zetaBatch(cgot, a2, xy, nb, k)
	zetaBatchGeneric(cwant, a2, xy, nb, k)
	for i := range cwant {
		if math.Float64bits(real(cgot[i])) != math.Float64bits(real(cwant[i])) ||
			math.Float64bits(imag(cgot[i])) != math.Float64bits(imag(cwant[i])) {
			t.Fatalf("complex nb=%d k=%d elem %d: %v vs %v (not bitwise)", nb, k, i, cgot[i], cwant[i])
		}
	}
}

func TestZetaBatchIsoPanicsOnMismatch(t *testing.T) {
	mustPanic(t, "short dst", func() {
		ZetaBatchIso(make([]float64, 3), make([]float64, 8), make([]float64, 2), 2, 2)
	})
	mustPanic(t, "short a2", func() {
		ZetaBatchIso(make([]float64, 4), make([]float64, 7), make([]float64, 2), 2, 2)
	})
	mustPanic(t, "short w", func() {
		ZetaBatchIso(make([]float64, 4), make([]float64, 8), make([]float64, 1), 2, 2)
	})
}
