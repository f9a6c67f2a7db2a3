package sphharm

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestMonomialCount(t *testing.T) {
	cases := []struct{ l, want int }{
		{0, 1}, {1, 4}, {2, 10}, {3, 20}, {10, 286},
	}
	for _, c := range cases {
		if got := MonomialCount(c.l); got != c.want {
			t.Errorf("MonomialCount(%d) = %d, want %d", c.l, got, c.want)
		}
	}
}

func TestMonomialTableOrderAndIndex(t *testing.T) {
	tab := NewMonomialTable(5)
	if tab.Len() != MonomialCount(5) {
		t.Fatalf("Len = %d, want %d", tab.Len(), MonomialCount(5))
	}
	for i := 0; i < tab.Len(); i++ {
		k, p, q := int(tab.K[i]), int(tab.P[i]), int(tab.Q[i])
		if k+p+q > 5 {
			t.Fatalf("monomial %d has total order %d", i, k+p+q)
		}
		if tab.Index(k, p, q) != i {
			t.Fatalf("Index(%d,%d,%d) = %d, want %d", k, p, q, tab.Index(k, p, q), i)
		}
	}
}

func TestMonomialIndexPanicsOutOfRange(t *testing.T) {
	tab := NewMonomialTable(3)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range monomial")
		}
	}()
	tab.Index(2, 2, 2)
}

func TestMonomialEvaluate(t *testing.T) {
	tab := NewMonomialTable(6)
	out := make([]float64, tab.Len())
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		x, y, z := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		tab.Evaluate(x, y, z, out)
		for i := range out {
			want := math.Pow(x, float64(tab.K[i])) * math.Pow(y, float64(tab.P[i])) * math.Pow(z, float64(tab.Q[i]))
			if math.Abs(out[i]-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("monomial %d (%d,%d,%d) = %v, want %v",
					i, tab.K[i], tab.P[i], tab.Q[i], out[i], want)
			}
		}
	}
}

// directSums computes monomial sums the obvious O(n * len) way with math.Pow.
func directSums(tab *MonomialTable, xs, ys, zs, ws []float64) []float64 {
	out := make([]float64, tab.Len())
	for j := range xs {
		for i := range out {
			out[i] += ws[j] *
				math.Pow(xs[j], float64(tab.K[i])) *
				math.Pow(ys[j], float64(tab.P[i])) *
				math.Pow(zs[j], float64(tab.Q[i]))
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

func TestKernelAccumulateMatchesDirect(t *testing.T) {
	const L = 10
	tab := NewMonomialTable(L)
	k := NewKernel(tab, 128)
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{1, 2, 7, 8, 9, 64, 127, 128} {
		xs, ys, zs, ws := randBucket(rng, n)
		acc := make([]float64, AccumulatorLen(tab))
		k.Accumulate(xs, ys, zs, ws, acc)
		got := make([]float64, tab.Len())
		Reduce(acc, got)
		want := directSums(tab, xs, ys, zs, ws)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("n=%d monomial %d: %v vs %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestKernelScalarMatchesBucketed(t *testing.T) {
	const L = 8
	tab := NewMonomialTable(L)
	k := NewKernel(tab, 64)
	rng := rand.New(rand.NewSource(16))
	xs, ys, zs, ws := randBucket(rng, 64)

	acc := make([]float64, AccumulatorLen(tab))
	k.Accumulate(xs, ys, zs, ws, acc)
	bucketed := make([]float64, tab.Len())
	Reduce(acc, bucketed)

	scalar := make([]float64, tab.Len())
	k.AccumulateScalar(xs, ys, zs, ws, scalar)

	for i := range scalar {
		if math.Abs(scalar[i]-bucketed[i]) > 1e-10*(1+math.Abs(scalar[i])) {
			t.Fatalf("monomial %d: scalar %v vs bucketed %v", i, scalar[i], bucketed[i])
		}
	}
}

func TestKernelAccumulateIsAdditive(t *testing.T) {
	// Accumulating two buckets into one accumulator equals accumulating
	// their concatenation: the property the bucket-flushing machinery
	// relies on (Sec. 3.3.1).
	const L = 6
	tab := NewMonomialTable(L)
	k := NewKernel(tab, 256)
	rng := rand.New(rand.NewSource(61))
	xs, ys, zs, ws := randBucket(rng, 200)

	accSplit := make([]float64, AccumulatorLen(tab))
	k.Accumulate(xs[:77], ys[:77], zs[:77], ws[:77], accSplit)
	k.Accumulate(xs[77:], ys[77:], zs[77:], ws[77:], accSplit)
	split := make([]float64, tab.Len())
	Reduce(accSplit, split)

	accAll := make([]float64, AccumulatorLen(tab))
	k.Accumulate(xs, ys, zs, ws, accAll)
	all := make([]float64, tab.Len())
	Reduce(accAll, all)

	for i := range all {
		if math.Abs(all[i]-split[i]) > 1e-9*(1+math.Abs(all[i])) {
			t.Fatalf("monomial %d: split %v vs whole %v", i, split[i], all[i])
		}
	}
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
		acc := make([]float64, AccumulatorLen(tab))
		k.AccumulateTile(xs, ys, zs, ws, acc)
		got := make([]float64, tab.Len())
		Reduce(acc, got)
		want := directSums(tab, xs, ys, zs, ws)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("n=%d monomial %d: %v vs %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestKernelTileMatchesBucketed(t *testing.T) {
	// Tile and bucketed kernels share the lane map and ladder order, so the
	// only difference is z-power association: (xy*z)*z... vs xy*(z*z...).
	const L = 9
	tab := NewMonomialTable(L)
	k := NewKernel(tab, 64)
	rng := rand.New(rand.NewSource(23))
	xs, ys, zs, ws := randBucket(rng, 64)

	tileAcc := make([]float64, AccumulatorLen(tab))
	k.AccumulateTile(xs, ys, zs, ws, tileAcc)
	tile := make([]float64, tab.Len())
	Reduce(tileAcc, tile)

	bucketAcc := make([]float64, AccumulatorLen(tab))
	k.Accumulate(xs, ys, zs, ws, bucketAcc)
	bucketed := make([]float64, tab.Len())
	Reduce(bucketAcc, bucketed)

	for i := range tile {
		if math.Abs(tile[i]-bucketed[i]) > 1e-10*(1+math.Abs(bucketed[i])) {
			t.Fatalf("monomial %d: tile %v vs bucketed %v", i, tile[i], bucketed[i])
		}
	}
}

func TestKernelTileChunkingInvariance(t *testing.T) {
	// Consuming one tile with different chunk capacities only regroups the
	// lane sums; the reduced monomial sums must agree to rounding.
	const L = 8
	tab := NewMonomialTable(L)
	rng := rand.New(rand.NewSource(29))
	xs, ys, zs, ws := randBucket(rng, 333)
	ref := make([]float64, tab.Len())
	{
		acc := make([]float64, AccumulatorLen(tab))
		NewKernel(tab, 333).AccumulateTile(xs, ys, zs, ws, acc)
		Reduce(acc, ref)
	}
	for _, cap := range []int{1, 8, 13, 128, 1024} {
		acc := make([]float64, AccumulatorLen(tab))
		NewKernel(tab, cap).AccumulateTile(xs, ys, zs, ws, acc)
		got := make([]float64, tab.Len())
		Reduce(acc, got)
		for i := range got {
			if math.Abs(got[i]-ref[i]) > 1e-9*(1+math.Abs(ref[i])) {
				t.Fatalf("cap=%d monomial %d: %v vs %v", cap, i, got[i], ref[i])
			}
		}
	}
}

func TestKernelTilePanicsOnMismatch(t *testing.T) {
	tab := NewMonomialTable(4)
	k := NewKernel(tab, 16)
	acc := make([]float64, AccumulatorLen(tab))
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("length mismatch", func() {
		k.AccumulateTile(make([]float64, 3), make([]float64, 2), make([]float64, 3), make([]float64, 3), acc)
	})
	mustPanic("bad accumulator", func() {
		k.AccumulateTile(make([]float64, 3), make([]float64, 3), make([]float64, 3), make([]float64, 3), acc[:5])
	})
}

func TestLanePrimitivesMatchGeneric(t *testing.T) {
	// The dispatched elementwise primitives (AVX-512 on capable amd64 hosts)
	// must agree with the pure-Go bodies for every tail length. The lane
	// folds are covered by TestRowLanesMatchesGeneric (row against the
	// per-monomial generic sequence) and TestLadderMatchesRowsBitwise.
	if !HasAVX512() {
		t.Skip("no vector path on this host; dispatch is the generic code")
	}
	rng := rand.New(rand.NewSource(37))
	for _, n := range []int{1, 2, 7, 8, 9, 15, 16, 31, 32, 33, 63, 64, 100, 128, 257} {
		src := make([]float64, n)
		zq := make([]float64, n)
		for j := range src {
			src[j] = rng.NormFloat64()
			zq[j] = rng.NormFloat64()
		}
		check := func(name string, got, want []float64) {
			t.Helper()
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
					t.Fatalf("%s n=%d lane/elem %d: %v vs %v", name, n, i, got[i], want[i])
				}
			}
		}

		d1 := append([]float64(nil), src...)
		d2 := append([]float64(nil), src...)
		mulInto(d1, zq)
		mulIntoGeneric(d2, zq)
		check("mulInto", d1, d2)

		c1 := make([]float64, n)
		c2 := make([]float64, n)
		mulCols(c1, src, zq)
		mulColsGeneric(c2, src, zq)
		check("mulCols", c1, c2)
	}
}

func TestKernelEmptyBucketNoop(t *testing.T) {
	tab := NewMonomialTable(4)
	k := NewKernel(tab, 16)
	acc := make([]float64, AccumulatorLen(tab))
	k.Accumulate(nil, nil, nil, nil, acc)
	for i, v := range acc {
		if v != 0 {
			t.Fatalf("accumulator touched at %d: %v", i, v)
		}
	}
}

func TestKernelPanicsOnMismatch(t *testing.T) {
	tab := NewMonomialTable(4)
	k := NewKernel(tab, 16)
	acc := make([]float64, AccumulatorLen(tab))
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("length mismatch", func() {
		k.Accumulate(make([]float64, 3), make([]float64, 2), make([]float64, 3), make([]float64, 3), acc)
	})
	mustPanic("over capacity", func() {
		n := 17
		k.Accumulate(make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n), acc)
	})
	mustPanic("bad accumulator", func() {
		k.Accumulate(make([]float64, 3), make([]float64, 3), make([]float64, 3), make([]float64, 3), acc[:5])
	})
}

func TestZero(t *testing.T) {
	acc := []float64{1, 2, 3}
	Zero(acc)
	for _, v := range acc {
		if v != 0 {
			t.Fatal("Zero did not clear accumulator")
		}
	}
}

func TestFlopsPerPair(t *testing.T) {
	if got := FlopsPerPair(10); got != 572 {
		t.Errorf("FlopsPerPair(10) = %d, want 572", got)
	}
}

func TestAlmFromKernelMatchesPointwise(t *testing.T) {
	// End-to-end: kernel monomial sums -> Alm must equal the sum of
	// pointwise Y_lm over the bucket. This is the identity the whole
	// algorithm rests on: a_lm = sum_i w_i Y_lm(rhat_i).
	const L = 10
	mono := NewMonomialTable(L)
	ytab := NewYlmTable(L, mono)
	k := NewKernel(mono, 128)
	rng := rand.New(rand.NewSource(30))
	xs, ys, zs, ws := randBucket(rng, 100)

	acc := make([]float64, AccumulatorLen(mono))
	k.Accumulate(xs, ys, zs, ws, acc)
	sums := make([]float64, mono.Len())
	Reduce(acc, sums)
	got := make([]complex128, PairCount(L))
	ytab.Alm(sums, got)

	want := make([]complex128, PairCount(L))
	scratch := make([]float64, mono.Len())
	point := make([]complex128, PairCount(L))
	for j := range xs {
		ytab.EvalPoint(xs[j], ys[j], zs[j], scratch, point)
		for i := range want {
			want[i] += complex(ws[j], 0) * point[i]
		}
	}
	for i := range got {
		d := got[i] - want[i]
		if math.Hypot(real(d), imag(d)) > 1e-9*(1+math.Hypot(real(want[i]), imag(want[i]))) {
			t.Fatalf("a_lm[%d]: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestRowLanesMatchesGeneric(t *testing.T) {
	// The fused ladder-row primitive must agree with the per-monomial
	// generic sequence (plain lane add of the z^0 row plus one fused
	// multiply-accumulate per hoisted z-power column) for every row length
	// and tail shape.
	rng := rand.New(rand.NewSource(91))
	const zcap = 128
	for _, n := range []int{1, 3, 7, 8, 9, 31, 32, 33, 100, 128} {
		for _, nq := range []int{0, 1, 2, 5, 10} {
			xy := make([]float64, n)
			zpow := make([]float64, nq*zcap+n) // columns at stride zcap
			for j := range xy {
				xy[j] = rng.NormFloat64()
			}
			for j := range zpow {
				zpow[j] = rng.NormFloat64()
			}
			got := make([]float64, (nq+1)*Lanes)
			want := make([]float64, (nq+1)*Lanes)
			for i := range got {
				got[i] = float64(i)
				want[i] = float64(i)
			}
			rowLanes(got, xy, zpow, zcap)
			rowLanesGeneric(want, xy, zpow, zcap)
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
					t.Fatalf("n=%d nq=%d elem %d: %v vs %v", n, nq, i, got[i], want[i])
				}
			}
		}
	}
}

func TestLadderMatchesRowsBitwise(t *testing.T) {
	// The one-dispatch-per-chunk ladder must be bit-identical to the
	// row-by-row path it replaces (one mulInto per running-product update,
	// one rowLanes per row) under each dispatch tag — the fused vector body
	// performs the same operations in the same order — for every chunk shape:
	// register-resident (n < 32, every vector count and tail), with quads,
	// and across AccumulateTile's chunking, folding twice into an accumulator
	// that is not zero.
	was := LaneDispatch() == "avx512"
	defer SetLaneDispatch(was)
	for _, vector := range []bool{false, true} {
		if SetLaneDispatch(vector) != vector {
			continue // no vector bodies on this host
		}
		rng := rand.New(rand.NewSource(99))
		for _, l := range []int{0, 1, 4, 10} {
			tab := NewMonomialTable(l)
			k := NewKernel(tab, 128)
			rows := NewKernel(tab, 128)
			for _, n := range []int{1, 3, 7, 8, 9, 31, 32, 33, 100, 128, 129, 300, 1023} {
				xs, ys, zs, ws := randBucket(rng, n)
				got := make([]float64, AccumulatorLen(tab))
				for i := range got {
					got[i] = rng.NormFloat64()
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
						t.Fatalf("%s l=%d n=%d acc[%d]: ladder %v vs rows %v (not bitwise)",
							LaneDispatch(), l, n, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestZetaBatchMatchesPerPrimaryBlock(t *testing.T) {
	// ZetaBatch over K packed primaries must agree with K sequential dense
	// per-primary updates (the generic body at k = 1, one primary's slab
	// rows at a time), for every nb strip/row shape and K.
	rng := rand.New(rand.NewSource(93))
	for _, nb := range []int{1, 2, 3, 4, 7, 8, 10, 16, 20} {
		for _, k := range []int{1, 2, 5, 31} {
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
				if cmplx.Abs(got[i]-want[i]) > 1e-12*(1+cmplx.Abs(want[i])) {
					t.Fatalf("nb=%d k=%d elem %d: %v vs %v", nb, k, i, got[i], want[i])
				}
			}
		}
	}
}

func TestReduceDispatchBitwiseGeneric(t *testing.T) {
	// The vector Reduce performs the identical pairwise tree, so unlike the
	// other primitives it must match the generic body bitwise.
	rng := rand.New(rand.NewSource(97))
	for _, n := range []int{1, 2, 3, 7, 8, 286} {
		acc := make([]float64, n*Lanes)
		for i := range acc {
			acc[i] = rng.NormFloat64() * math.Exp(20*rng.NormFloat64())
		}
		got := make([]float64, n)
		want := make([]float64, n)
		reduce(acc, got)
		reduceGeneric(acc, want)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d out[%d]: %v vs %v (not bitwise)", n, i, got[i], want[i])
			}
		}
	}
}

func TestZetaBatchIsoMatchesReference(t *testing.T) {
	// ZetaBatchIso over K packed split-half primaries must agree with the
	// scalar real update it compacts — x*re2 + y*im2 with the weighted leg
	// derived from the per-primary weight — for every nb strip/row shape
	// and K, under whichever dispatch is active.
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
					t.Fatalf("nb=%d k=%d elem %d: %v vs %v", nb, k, i, got[i], want[i])
				}
			}
		}
	}
}

func TestZetaBatchIsoDispatchAgreesWithGeneric(t *testing.T) {
	// The vector body regroups the two multiply-adds into FMAs, so agreement
	// with the generic body is to rounding, not bits (same contract as
	// ZetaBatch).
	if !HasAVX512() {
		t.Skip("no vector path on this host; dispatch is the generic code")
	}
	rng := rand.New(rand.NewSource(96))
	for _, nb := range []int{1, 3, 8, 9, 17} {
		k := 6
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
		zetaBatchIso(got, a2, w, nb, k)
		zetaBatchIsoGeneric(want, a2, w, nb, k)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
				t.Fatalf("nb=%d elem %d: %v vs %v", nb, i, got[i], want[i])
			}
		}
	}
}

func TestZetaBatchIsoPanicsOnMismatch(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("short dst", func() {
		ZetaBatchIso(make([]float64, 3), make([]float64, 8), make([]float64, 2), 2, 2)
	})
	mustPanic("short a2", func() {
		ZetaBatchIso(make([]float64, 4), make([]float64, 7), make([]float64, 2), 2, 2)
	})
	mustPanic("short w", func() {
		ZetaBatchIso(make([]float64, 4), make([]float64, 8), make([]float64, 1), 2, 2)
	})
}
