package sphharm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// binsCase is one primary's tail input: nb bin accumulators end to end, its
// pair count per bin (the untouched bins' accumulators hold what an earlier
// primary left, here NaN) and its weight.
type binsCase struct {
	nb  int
	acc []float64
	cnt []int32
	pw  float64
}

// newBinsCase draws the touched bins' lanes from a wide range of magnitudes,
// or, tiny, from ±0 and ±the least subnormal: sums whose products with a
// coefficient below 1/2 underflow, so a chain can end in -0.
func newBinsCase(rng *rand.Rand, mono *MonomialTable, nb int, touch func(b int) bool, tiny bool) binsCase {
	al := AccumulatorLen(mono)
	c := binsCase{nb: nb, acc: make([]float64, nb*al), cnt: make([]int32, nb), pw: 0.25 + rng.Float64()}
	if rng.Intn(2) == 0 {
		c.pw = -c.pw // negative weights (randoms) scale the weighted leg by a negative
	}
	for b := 0; b < nb; b++ {
		a := c.acc[b*al : (b+1)*al]
		if !touch(b) {
			copy(a, sentinel(al))
			continue
		}
		c.cnt[b] = 1 + rng.Int31n(100)
		for i := range a {
			if tiny {
				a[i] = math.Copysign(float64(rng.Intn(2))*math.SmallestNonzeroFloat64, float64(rng.Intn(2)*2-1))
				continue
			}
			switch rng.Intn(16) {
			case 0:
				a[i] = 0
			case 1:
				a[i] = math.Copysign(0, -1) // a group of -0 lanes folds to a -0 sum
			default:
				a[i] = rng.NormFloat64() * math.Exp(10*rng.NormFloat64())
			}
		}
	}
	return c
}

// referenceTail is the engine's per-bin tail before the bins were
// vectorised: for every touched bin ReduceClear (which clears it), AlmRI and
// the strided copy into the primary's slab rows at dst[row:] (slot stride
// stride), split re/im halves (iso) or packed pairs plus the pw-scaled
// weighted leg; untouched bins keep the +0 their cleared rows hold. msums,
// re and im are its scratch.
func referenceTail(tab *YlmTable, c binsCase, acc []float64, iso bool, aS, wXY []float64, row, stride int, msums, re, im []float64) {
	nb, pc := c.nb, PairCount(tab.L)
	al := AccumulatorLen(tab.Mono)
	for o := row; o < pc*stride; o += stride {
		clear(aS[o : o+2*nb])
		if !iso {
			clear(wXY[o : o+2*nb])
		}
	}
	for bb := 0; bb < nb; bb++ {
		if c.cnt[bb] == 0 {
			continue
		}
		ReduceClear(acc[bb*al:(bb+1)*al], msums)
		tab.AlmRI(msums, re, im)
		for i := 0; i < pc; i++ {
			if o := row + i*stride; iso {
				aS[o+bb], aS[o+nb+bb] = re[i], im[i]
			} else {
				aS[o+2*bb], aS[o+2*bb+1] = re[i], im[i]
				wXY[o+2*bb], wXY[o+2*bb+1] = c.pw*re[i], c.pw*im[i]
			}
		}
	}
}

// binsTail is the new tail: one ReduceBins and one AlmBins(Packed) call.
func binsTail(tab *YlmTable, c binsCase, iso bool, aS, wXY []float64, row, stride int) []float64 {
	acc := append([]float64(nil), c.acc...)
	sums := make([]float64, tab.Mono.Len()*BinStride(c.nb))
	for i := range sums {
		sums[i] = math.NaN() // every value, padding included, is written
	}
	ReduceBins(acc, c.cnt, sums)
	if iso {
		tab.AlmBins(sums, c.nb, aS[row:], stride)
	} else {
		scale := make([]float64, c.nb)
		for b, n := range c.cnt {
			if n > 0 {
				scale[b] = c.pw
			}
		}
		tab.AlmBinsPacked(sums, c.nb, scale, aS[row:], wXY[row:], stride)
	}
	return acc
}

// TestBinsTailMatchesPerBinTail pins the tentpole's bit-for-bit claim: one
// ReduceBins + AlmBins over all bins of a primary writes exactly the slab
// rows that per-bin ReduceClear + AlmRI + copy wrote — under every dispatch,
// for every bin count to 24 (each last reduce group of one to eight bins,
// so both reduce paths, and each conversion block of one or two groups
// under every chunk mask), for orders with one partial conversion block
// through several full ones, in both slab layouts, with
// untouched bins (+0 rows whatever their accumulators hold, even under a
// negative weight), -0 sums and chains that underflow to -0 (which binDot's
// closing + 0 turns into +0) — and touches nothing outside the primary's rows
// or in the accumulators.
func TestBinsTailMatchesPerBinTail(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const k, a = 3, 1 // the primary's rows sit between two others' in a 3-primary unit
	eachDispatch(t, func(tag string) {
		for _, l := range []int{0, 1, 4, 10, 20} {
			mono := NewMonomialTable(l)
			tab := NewYlmTable(l, mono)
			pc := PairCount(l)
			for nb := 1; nb <= 24; nb++ {
				stride := k * 2 * nb
				shapes := []struct {
					name  string
					touch func(b int) bool
					tiny  bool
				}{
					{"all", func(int) bool { return true }, false},
					{"none", func(int) bool { return false }, false},
					{"sparse", func(int) bool { return rng.Intn(3) > 0 }, false},
					{"tiny", func(int) bool { return rng.Intn(3) > 0 }, true},
				}
				for _, sh := range shapes {
					c := newBinsCase(rng, mono, nb, sh.touch, sh.tiny)
					shape := sh.name
					for _, iso := range []bool{true, false} {
						name := fmt.Sprintf("%s L=%d nb=%d %s iso=%v pw=%v", tag, l, nb, shape, iso, c.pw)
						wantA, wantW := sentinel(pc*stride), sentinel(pc*stride)
						gotA, gotW := sentinel(pc*stride), sentinel(pc*stride)
						referenceTail(tab, c, append([]float64(nil), c.acc...), iso, wantA, wantW, a*2*nb, stride,
							make([]float64, mono.Len()), make([]float64, pc), make([]float64, pc))
						acc := binsTail(tab, c, iso, gotA, gotW, a*2*nb, stride)
						sameBits(t, name+" a leg", gotA, wantA)
						sameBits(t, name+" weighted leg", gotW, wantW)
						sameBits(t, name+" accumulators", acc, c.acc)
					}
				}
			}
		}
	})
}

// TestSumTileMatchesClearedAccumulate pins SumTile, which never reads its
// accumulator, to AccumulateTile into a cleared one bit for bit under every
// dispatch at every ladderNs length: register-resident chunks of each
// vector count (n < 32), chunks with quads, tiles of several chunks (only
// the first starts from +0), and the empty tile.
func TestSumTileMatchesClearedAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(68))
	eachDispatch(t, func(tag string) {
		for _, l := range []int{0, 1, 4, 10} {
			tab := NewMonomialTable(l)
			k := NewKernel(tab, 128)
			for _, n := range ladderNs {
				xs, ys, zs, ws := randBucket(rng, n)
				want := make([]float64, AccumulatorLen(tab))
				k.AccumulateTile(xs, ys, zs, ws, want)
				got := sentinel(len(want)) // an earlier primary's leftovers
				k.SumTile(xs, ys, zs, ws, got)
				sameBits(t, fmt.Sprintf("%s l=%d n=%d", tag, l, n), got, want)
			}
		}
	})
}

// TestReduceBinsMatchesReduce checks the transposed layout directly: column
// b of row i is Reduce's sum i of bin b for every bin with pairs, and +0 for
// the others (whose accumulators hold NaN here) and the padding columns,
// under every dispatch, with acc left as it was — for every bin count to 24
// (a last group of one to eight bins: reduced over bins, or bin by bin over
// runs of eight sums) at every sum count to nine — each length of a short
// last run — and at whole runs and longer shapes.
func TestReduceBinsMatchesReduce(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for _, ns := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 23, 121} {
		for nb := 1; nb <= 24; nb++ {
			acc := make([]float64, nb*ns*Lanes)
			cnt := make([]int32, nb)
			ld := BinStride(nb)
			want := make([]float64, ns*ld)
			col := make([]float64, ns)
			for b := range cnt {
				a := acc[b*ns*Lanes : (b+1)*ns*Lanes]
				if rng.Intn(4) == 0 {
					copy(a, sentinel(len(a)))
					continue
				}
				cnt[b] = 1
				for i := range a {
					a[i] = rng.NormFloat64() * math.Exp(20*rng.NormFloat64())
				}
				Reduce(a, col)
				for i, v := range col {
					want[i*ld+b] = v
				}
			}
			eachDispatch(t, func(tag string) {
				a := append([]float64(nil), acc...)
				got := sentinel(ns * ld)
				ReduceBins(a, cnt, got)
				sameBits(t, fmt.Sprintf("%s ns=%d nb=%d", tag, ns, nb), got, want)
				sameBits(t, fmt.Sprintf("%s ns=%d nb=%d acc", tag, ns, nb), a, acc)
			})
		}
	}
}

func TestBinsPanicsOnMismatch(t *testing.T) {
	mono := NewMonomialTable(2)
	tab := NewYlmTable(2, mono)
	al := AccumulatorLen(mono)
	sums := make([]float64, mono.Len()*BinStride(3))
	slab := make([]float64, PairCount(2)*6)
	cnt := make([]int32, 3)
	mustPanic(t, "ReduceBins zero bins", func() { ReduceBins(make([]float64, al), nil, sums) })
	mustPanic(t, "ReduceBins ragged acc", func() { ReduceBins(make([]float64, 3*al+Lanes), cnt, sums) })
	mustPanic(t, "ReduceBins short out", func() { ReduceBins(make([]float64, 3*al), cnt, sums[1:]) })
	mustPanic(t, "AlmBins sums", func() { tab.AlmBins(sums[1:], 3, slab, 6) })
	mustPanic(t, "AlmBins stride", func() { tab.AlmBins(sums, 3, slab, 5) })
	mustPanic(t, "AlmBins short slab", func() { tab.AlmBins(sums, 3, slab[1:], 6) })
	mustPanic(t, "AlmBinsPacked scale", func() { tab.AlmBinsPacked(sums, 3, make([]float64, 2), slab, slab, 6) })
	mustPanic(t, "AlmBinsPacked w", func() { tab.AlmBinsPacked(sums, 3, make([]float64, 3), slab, slab[1:], 6) })
}

// TestLegendreMomentsDispatchBitwise pins the vector LegendreMoments to the
// portable body bit for bit at every tile length 0-70 (whole registers, the
// group-of-four remainder and every tail length behind them) and at orders
// whose chunks end whole, one order in and seven in (len(out) 1, 2, 9, 21,
// 41), with recurrence endpoints z = ±1 and zero weights in the tile.
func TestLegendreMomentsDispatchBitwise(t *testing.T) {
	if !HasAVX512() {
		t.Skip("no vector path on this host; dispatch is the generic code")
	}
	rng := rand.New(rand.NewSource(63))
	for _, order := range []int{1, 2, 9, 21, 41} {
		for n := 0; n <= 70; n++ {
			zs, ws := make([]float64, n), make([]float64, n)
			for j := range zs {
				_, _, zs[j] = randUnit(rng)
				ws[j] = rng.Float64()*2 - 0.5
				switch rng.Intn(8) {
				case 0:
					zs[j] = 1
				case 1:
					zs[j] = -1
				case 2:
					ws[j] = 0
				}
			}
			want := sentinel(order)
			legendreMomentsGeneric(zs, ws, want)
			got := sentinel(order + 8) // nothing past out is written
			LegendreMoments(zs, ws, got[:order])
			sameBits(t, fmt.Sprintf("order %d n=%d", order, n), got[:order], want)
			sameBits(t, fmt.Sprintf("order %d n=%d past out", order, n), got[order:], sentinel(8))
		}
	}
}

// TestLegendreMomentsTilesMatchesPerTile pins the one-call-per-primary form
// to per-tile LegendreMoments bit for bit under every dispatch, for tile
// mixes that pair registers across tile boundaries (odd and even load
// counts, empty tiles, more loads than one batch holds), and checks that it
// allocates nothing.
func TestLegendreMomentsTilesMatchesPerTile(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	mixes := [][]int{{0}, {1}, {5}, {8, 0, 3}, {20, 19, 0, 53, 1, 7}, {128, 300, 4}}
	for _, order := range []int{1, 9, 21, 41} {
		for _, mix := range mixes {
			var ends []int32
			n := 0
			for _, l := range mix {
				n += l
				ends = append(ends, int32(n))
			}
			zs, ws := make([]float64, n), make([]float64, n)
			for j := range zs {
				_, _, zs[j] = randUnit(rng)
				ws[j] = rng.Float64()*2 - 0.5
			}
			want := make([]float64, len(ends)*order)
			beg := 0
			for tl, e := range ends {
				legendreMomentsGeneric(zs[beg:e], ws[beg:e], want[tl*order:(tl+1)*order])
				beg = int(e)
			}
			eachDispatch(t, func(tag string) {
				got := sentinel(len(want))
				LegendreMomentsTiles(zs, ws, ends, got)
				sameBits(t, fmt.Sprintf("%s order %d mix %v", tag, order, mix), got, want)
				if a := testing.AllocsPerRun(10, func() { LegendreMomentsTiles(zs, ws, ends, got) }); a != 0 {
					t.Fatalf("%s: %v allocations per call", tag, a)
				}
			})
		}
	}
	mustPanic(t, "no tiles", func() { LegendreMomentsTiles(nil, nil, nil, nil) })
	mustPanic(t, "ragged out", func() {
		LegendreMomentsTiles(make([]float64, 2), make([]float64, 2), []int32{1, 2}, make([]float64, 3))
	})
	mustPanic(t, "ends past zs", func() { LegendreMomentsTiles(make([]float64, 2), make([]float64, 2), []int32{3}, make([]float64, 3)) })
	mustPanic(t, "ends descending", func() {
		LegendreMomentsTiles(make([]float64, 2), make([]float64, 2), []int32{2, 1}, make([]float64, 4))
	})
	mustPanic(t, "short weights", func() { LegendreMomentsTiles(make([]float64, 2), make([]float64, 1), []int32{2}, make([]float64, 3)) })
}

// sentinel returns n NaNs: a value no primitive writes, so a slot left
// unwritten (or written where it should not be) shows bitwise.
func sentinel(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = math.NaN()
	}
	return s
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %v (%#x), want %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// eachDispatchB runs a benchmark under every lane dispatch tag this host
// has, one sub-benchmark per tag.
func eachDispatchB(b *testing.B, f func(b *testing.B)) {
	was := LaneDispatch() == "avx512"
	defer SetLaneDispatch(was)
	for _, vector := range []bool{false, true} {
		if SetLaneDispatch(vector) != vector {
			continue
		}
		b.Run(LaneDispatch(), f)
	}
}

// BenchmarkLegendreMoments times the self-count layer per pair at order 21
// (LMax 10) over tiles of 8, 20, 53 and 128 pairs: one whole register, the
// typical iso_survey tile, a remainder of five, and a long tile.
func BenchmarkLegendreMoments(b *testing.B) {
	rng := rand.New(rand.NewSource(64))
	for _, n := range []int{8, 20, 53, 128} {
		zs, ws := make([]float64, n), make([]float64, n)
		for j := range zs {
			_, _, zs[j] = randUnit(rng)
			ws[j] = 0.5 + rng.Float64()
		}
		out := make([]float64, 21)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			eachDispatchB(b, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					LegendreMoments(zs, ws, out)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/pair")
			})
		})
	}
}

// BenchmarkLegendreMomentsTiles times the per-primary call over an
// iso_survey-like mix of ten tiles (195 pairs) at order 21.
func BenchmarkLegendreMomentsTiles(b *testing.B) {
	rng := rand.New(rand.NewSource(67))
	var ends []int32
	n := 0
	for _, l := range []int{0, 1, 4, 7, 11, 16, 21, 29, 42, 64} {
		n += l
		ends = append(ends, int32(n))
	}
	zs, ws := make([]float64, n), make([]float64, n)
	for j := range zs {
		_, _, zs[j] = randUnit(rng)
		ws[j] = 0.5 + rng.Float64()
	}
	out := make([]float64, 21*len(ends))
	eachDispatchB(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			LegendreMomentsTiles(zs, ws, ends, out)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/pair")
	})
}

// BenchmarkPrimaryTail times the engine's per-primary tail after the kernel
// — lane sums to a_lm rows in the unit slab — at L 10 / nb 10 (aniso_box,
// iso_survey) and L 4 / nb 6 (stream_sharded), and at L 10 / nb 8 and 16,
// whole groups of eight bins beside nb 10's two-bin last group, every bin
// touched. The slab's 32-primary stride puts nb 8's and 16's slot rows 4
// and 8 KB apart, on the same L1 sets, so those rows also read what that
// costs the a_lm stores; nb 10's rows are 5 KB apart. The "+line" rows
// widen nb 8's and 16's stride by the cache line the engine adds at such a
// spacing (core's slotStride), taking the rows off the shared sets. "perbin"
// is the per-bin ReduceClear + AlmRI + strided copy the engine ran before
// the bins were vectorised, "bins" is ReduceBins + AlmBins(Packed), which
// also reports the reduce alone. perbin's accumulators are cleared by its
// first iteration; the work does not depend on their values.
func BenchmarkPrimaryTail(b *testing.B) {
	for _, c := range []struct {
		l, nb, pad int
	}{{10, 10, 0}, {4, 6, 0}, {10, 8, 0}, {10, 8, 8}, {10, 16, 0}, {10, 16, 8}} {
		mono := NewMonomialTable(c.l)
		tab := NewYlmTable(c.l, mono)
		pc := PairCount(c.l)
		cs := newBinsCase(rand.New(rand.NewSource(65)), mono, c.nb, func(int) bool { return true }, false)
		acc := append([]float64(nil), cs.acc...)
		stride := 32*2*c.nb + c.pad
		shape := fmt.Sprintf("L=%d/nb=%d", c.l, c.nb)
		if c.pad > 0 {
			shape += "+line"
		}
		aS, wXY := make([]float64, pc*stride), make([]float64, pc*stride)
		for _, iso := range []bool{true, false} {
			layout := "packed"
			if iso {
				layout = "split"
			}
			b.Run(shape+"/"+layout+"/perbin", func(b *testing.B) {
				msums, re, im := make([]float64, mono.Len()), make([]float64, pc), make([]float64, pc)
				eachDispatchB(b, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						referenceTail(tab, cs, acc, iso, aS, wXY, 0, stride, msums, re, im)
					}
				})
			})
			b.Run(shape+"/"+layout+"/bins", func(b *testing.B) {
				sums := make([]float64, mono.Len()*BinStride(c.nb))
				scale := make([]float64, c.nb)
				for i := range scale {
					scale[i] = cs.pw
				}
				eachDispatchB(b, func(b *testing.B) {
					var reduce time.Duration
					for i := 0; i < b.N; i++ {
						t0 := time.Now()
						ReduceBins(cs.acc, cs.cnt, sums)
						reduce += time.Since(t0)
						if iso {
							tab.AlmBins(sums, c.nb, aS, stride)
						} else {
							tab.AlmBinsPacked(sums, c.nb, scale, aS, wXY, stride)
						}
					}
					b.ReportMetric(float64(reduce.Nanoseconds())/float64(b.N), "reduce-ns")
				})
			})
		}
	}
}
