package sphharm

import (
	"math"

	"galactos/internal/lanes"
)

// The multipole accumulation kernel (Sec. 3.3 of the paper). The dominant
// cost of Galactos is accumulating, for each galaxy pair, the weighted power
// sums of its unit separation into the radial bin's accumulator. The paper
// accumulates all 286 (at l = 10) combinations x^k y^p z^q; this kernel
// accumulates the (l+1)^2 = 121 sums Re/Im of w (x+iy)^m z^j that span the
// same space on the unit sphere (see MonomialTable). The structure is the
// paper's: vectorized over *pairs*, pairs consumed in chunks sized to stay
// cache-resident, and an 8-element sub-accumulator per sum so that N/8
// vector reductions collapse into a single reduction per primary
// (Sec. 3.3.2).
//
//   - separations are stored structure-of-arrays (contiguous dx, dy, dz
//     slices — the data-locality layout of Sec. 3.3.3);
//   - per chunk one lane call (the ladder) hoists the z-power columns, carries
//     one complex running power (c, s) = w (x+iy)^m from (w, 0) by a rotation
//     per order m, and folds each row's c (then s) times z^j into its lane
//     groups;
//   - each sum accumulates into Lanes (=8) interleaved partial sums, folded
//     once per primary by Reduce.

// Lanes is the sub-accumulator width: 8 float64 values fill one 512-bit
// vector register on the paper's Xeon Phi target.
const Lanes = 8

// FlopsPerPair returns the kernel's exact floating-point operation count per
// galaxy pair at maximum order l, a fused multiply-add counting 2:
//
//   - lane folds: one add for the j = 0 sum of each of the 2l+1 rows and one
//     multiply-add for each of the other l^2 sums — 2l^2 + 2l + 1;
//   - the running power: 2 multiplies for the first rotation (s = 0 there)
//     and 2 multiplies + 2 multiply-adds for each of the other l-1 —
//     2 + 6(l-1);
//   - the hoisted z-power columns z^2..z^l: l-1 multiplies.
//
// That is 286 at l = 10, against the paper's 576 for its 286 monomials.
func FlopsPerPair(l int) int {
	n := 2*l*l + 2*l + 1
	if l >= 1 {
		n += 2 + 6*(l-1) + (l - 1)
	}
	return n
}

// Kernel accumulates the MonomialTable sums over pair tiles for a fixed
// maximum order. A Kernel is owned by a single worker (thread): it carries
// scratch buffers and is not safe for concurrent use. Accumulators live
// outside the kernel (one per radial bin) so one kernel serves all bins.
type Kernel struct {
	Table *MonomialTable
	cap   int
	c, s  []float64 // running w Re (x+iy)^m and w Im (x+iy)^m per pair
	zpow  []float64 // hoisted z-power columns: zpow[(q-1)*cap:...] holds z^q
}

// NewKernel returns a kernel for table t consuming tiles in chunks of at
// most bucketCap pairs.
func NewKernel(t *MonomialTable, bucketCap int) *Kernel {
	if bucketCap <= 0 {
		panic("sphharm: bucket capacity must be positive")
	}
	return &Kernel{
		Table: t,
		cap:   bucketCap,
		c:     make([]float64, bucketCap),
		s:     make([]float64, bucketCap),
		zpow:  make([]float64, t.L*bucketCap),
	}
}

// AccumulatorLen returns the length of the lane-striped accumulator slice
// AccumulateTile requires for table t: one group of Lanes values per sum.
func AccumulatorLen(t *MonomialTable) int { return t.Len() * Lanes }

// AccumulateTile adds the weighted power sums of one whole same-bin pair
// tile into the lane-striped accumulator acc (length AccumulatorLen(Table)).
// xs, ys, zs hold the scaled separations (dx/r etc., so x^2+y^2+z^2 = 1 per
// pair) and ws the pair weights. This is the engine's hot path, in its
// SumTile form: the bin-sorted gather hands it every pair of one radial bin
// at once (any length), and the tile is consumed in chunks of the kernel
// capacity so the scratch columns stay cache-resident.
func (k *Kernel) AccumulateTile(xs, ys, zs, ws []float64, acc []float64) {
	k.tile(xs, ys, zs, ws, acc, false)
}

// SumTile is AccumulateTile into an accumulator that starts at +0, whatever
// acc holds: it overwrites acc with the tile's lane-striped sums, bit for
// bit those AccumulateTile adds to a cleared accumulator, without reading
// acc — the first chunk's rows start from +0 in-register — so the engine
// never clears its accumulators. An empty tile leaves acc all +0.
func (k *Kernel) SumTile(xs, ys, zs, ws []float64, acc []float64) {
	k.tile(xs, ys, zs, ws, acc, true)
}

// tile is AccumulateTile (fresh false) and SumTile (fresh true): the tile in
// chunks of the kernel capacity, one ladder call each, only the first of
// them fresh.
func (k *Kernel) tile(xs, ys, zs, ws []float64, acc []float64, fresh bool) {
	n := len(xs)
	if len(ys) != n || len(zs) != n || len(ws) != n {
		panic("sphharm: tile slice length mismatch")
	}
	if len(acc) != AccumulatorLen(k.Table) {
		panic("sphharm: accumulator length mismatch")
	}
	if n == 0 && fresh {
		clear(acc)
	}
	for lo := 0; lo < n; lo += k.cap {
		hi := min(lo+k.cap, n)
		ladder(acc, k.c[:hi-lo], k.s[:hi-lo], ws[lo:hi], xs[lo:hi], ys[lo:hi], zs[lo:hi],
			k.zpow, k.cap, k.Table.L, fresh && lo == 0)
	}
}

// ladderRows is the pure-Go body of the ladder primitive, one chunk of
// n = len(ws) <= zcap pairs: first the z-power hoist — zpow[(q-1)*zcap:]
// receives z^q for q = 1..l, z^1 a copy of zs and z^q the product
// z^(q-1) .* z — then the rows in MonomialTable order, each advance of the
// running power (c, s) a rotate call (two mulCols from the weights for the
// first, where s is still 0) and each row one rowLanes call folding its
// whole j ladder (the z^0 lane add plus every z^j fused multiply-accumulate
// over the hoisted columns). The m = 0 row folds ws itself; c and s are
// scratch. The vector body (ladderAsm) performs the same operations in the
// same order without returning to Go, so the two are bit-identical
// (TestLadderMatchesRowsBitwise). fresh clears acc first; the vector body
// loads +0 in its place instead.
func ladderRows(acc, c, s, ws, xs, ys, zs, zpow []float64, zcap, l int, fresh bool) {
	n := len(ws)
	for q := 1; q <= l; q++ {
		zq := zpow[(q-1)*zcap : (q-1)*zcap+n]
		if q == 1 {
			copy(zq, zs)
		} else {
			mulCols(zq, zpow[(q-2)*zcap:(q-2)*zcap+n], zs)
		}
	}
	if fresh {
		clear(acc)
	}
	rowLanes(acc[:(l+1)*Lanes], ws, zpow, zcap)
	i := l + 1
	for m := 1; m <= l; m++ {
		if m == 1 {
			mulCols(s, ws, ys)
			mulCols(c, ws, xs)
		} else {
			rotate(c, s, xs, ys)
		}
		n := l - m + 1
		rowLanes(acc[i*Lanes:(i+n)*Lanes], c, zpow, zcap)
		rowLanes(acc[(i+n)*Lanes:(i+2*n)*Lanes], s, zpow, zcap)
		i += 2 * n
	}
}

// The lane primitives are package function variables so the amd64 init can
// swap in the AVX-512 bodies (kernel_lanes_amd64.go) with zero per-call
// dispatch overhead; everywhere else they stay bound to the generic bodies.
// All callers pass matched column lengths — the vector bodies trust the
// driving slice's length the same way the generic bodies do.
var (
	ladder       = ladderRows
	rowLanes     = rowLanesGeneric
	rotate       = rotateGeneric
	mulCols      = mulColsGeneric
	almRI        = almRIGeneric
	zetaBatch    = zetaBatchGeneric
	zetaBatchIso = zetaBatchIsoGeneric
	reduce       = reduceGeneric
	reduceBins   = reduceBinsGeneric
	almBins      = almBinsGeneric
	moments      = legendreMomentsTilesGeneric
	pairColumns  = pairColumnsGeneric
)

// bindGenericLanes rebinds every lane primitive to its portable pure-Go
// body.
func bindGenericLanes() {
	ladder = ladderRows
	rowLanes = rowLanesGeneric
	rotate = rotateGeneric
	mulCols = mulColsGeneric
	almRI = almRIGeneric
	zetaBatch = zetaBatchGeneric
	zetaBatchIso = zetaBatchIsoGeneric
	reduce = reduceGeneric
	reduceBins = reduceBinsGeneric
	almBins = almBinsGeneric
	moments = legendreMomentsTilesGeneric
	pairColumns = pairColumnsGeneric
}

// SetLaneDispatch selects the lane-primitive implementation: vector
// requests the SIMD bodies (kept only on hosts that have them), false
// forces the portable pure-Go bodies everywhere. It returns whether the
// vector path is active after the call. The rebinding is process-global and
// not synchronized against running kernels — callers (the scenario golden
// harness, kernel ablations) must switch only between runs.
func SetLaneDispatch(vector bool) bool {
	if lanes.Set(vector) {
		bindVectorLanes()
	} else {
		bindGenericLanes()
	}
	return lanes.Vector()
}

// HasAVX512 reports whether this host has the AVX-512 lane bodies.
func HasAVX512() bool { return lanes.HasAVX512() }

// LaneDispatch names the lane-primitive binding in effect ("avx512" or
// "generic"). Both bindings perform the same float64 operations in the same
// order, so the tag never changes a result bit; it names which code ran.
func LaneDispatch() string {
	if lanes.Vector() {
		return "avx512"
	}
	return "generic"
}

// rowLanesGeneric folds one ladder row — acc holds nq+1 lane groups, where
// group q gains the lane-striped sums of src .* z^q (group 0 is the plain
// add) and z^q is the hoisted column zpow[(q-1)*zcap:] — in rowBody<>'s
// order: per group four chains over the 32-pair quads (chain k takes the
// 8-pair blocks 4i+k), chain 0 starting from the accumulator and the others
// from +0, the blocks after the quads and the tail extending chain 0, and
// the fold (c0 + c1) + (c2 + c3). Without a quad chains 1-3 stay +0 and
// the fold is c0 + 0, as in ladderAsm's register-resident path.
func rowLanesGeneric(acc, src, zpow []float64, zcap int) {
	n := len(src)
	quads := n &^ (4*Lanes - 1)
	for q := 0; q < len(acc)/Lanes; q++ {
		var zq []float64 // nil: group 0's plain add
		if q > 0 {
			zq = zpow[(q-1)*zcap : (q-1)*zcap+n]
		}
		a := (*[Lanes]float64)(acc[q*Lanes : q*Lanes+Lanes])
		if quads == 0 {
			laneChain(a, src, zq, 0, Lanes)
			for i := range a {
				a[i] += 0
			}
			continue
		}
		var c1, c2, c3 [Lanes]float64
		laneChain(a, src[:quads], zq, 0, 4*Lanes)
		laneChain(&c1, src[:quads], zq, Lanes, 4*Lanes)
		laneChain(&c2, src[:quads], zq, 2*Lanes, 4*Lanes)
		laneChain(&c3, src[:quads], zq, 3*Lanes, 4*Lanes)
		laneChain(a, src, zq, quads, Lanes)
		for i := range a {
			a[i] = (a[i] + c1[i]) + (c2[i] + c3[i])
		}
	}
}

// laneChain runs one accumulator chain of rowLanesGeneric with its 8 lanes
// in registers: the 8-pair blocks src[j:j+8] for j = lo, lo+step, ... land
// in lanes 0..7 of a, then the pairs past the last whole block (the masked
// tail; only a step of Lanes reaches it) in lane j&7 — each added (zq nil)
// or fused as math.FMA(src, zq, a).
func laneChain(a *[Lanes]float64, src, zq []float64, lo, step int) {
	a0, a1, a2, a3, a4, a5, a6, a7 := a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7]
	j := lo
	if zq == nil {
		for ; j+Lanes <= len(src); j += step {
			s := src[j : j+Lanes : j+Lanes]
			a0 += s[0]
			a1 += s[1]
			a2 += s[2]
			a3 += s[3]
			a4 += s[4]
			a5 += s[5]
			a6 += s[6]
			a7 += s[7]
		}
	} else {
		zq = zq[:len(src)]
		for ; j+Lanes <= len(src); j += step {
			s := src[j : j+Lanes : j+Lanes]
			z := zq[j : j+Lanes : j+Lanes]
			a0 = math.FMA(s[0], z[0], a0)
			a1 = math.FMA(s[1], z[1], a1)
			a2 = math.FMA(s[2], z[2], a2)
			a3 = math.FMA(s[3], z[3], a3)
			a4 = math.FMA(s[4], z[4], a4)
			a5 = math.FMA(s[5], z[5], a5)
			a6 = math.FMA(s[6], z[6], a6)
			a7 = math.FMA(s[7], z[7], a7)
		}
	}
	a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7] = a0, a1, a2, a3, a4, a5, a6, a7
	for ; j < len(src); j++ {
		if zq == nil {
			a[j&(Lanes-1)] += src[j]
		} else {
			a[j&(Lanes-1)] = math.FMA(src[j], zq[j], a[j&(Lanes-1)])
		}
	}
}

// rotateGeneric advances the running power one order in place:
// (c, s) <- (c*x - s*y, c*y + s*x), i.e. c + is times x + iy, rounded as
// rotateBody<> rounds it: each product s*y, s*x once, then one FMA.
func rotateGeneric(c, s, xs, ys []float64) {
	s = s[:len(c)]
	xs = xs[:len(c)]
	ys = ys[:len(c)]
	for j, cj := range c {
		sj, x, y := s[j], xs[j], ys[j]
		c[j] = math.FMA(cj, x, -float64(sj*y))
		s[j] = math.FMA(cj, y, float64(sj*x))
	}
}

// mulColsGeneric writes a .* b into dst, which may alias a (the hoisted
// z-power column recurrence z^q = z^(q-1) * z, and the first rotation).
func mulColsGeneric(dst, a, b []float64) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	for j := range dst {
		dst[j] = a[j] * b[j]
	}
}

// ZetaBatch folds k dense primaries' zeta contributions to one channel in a
// single call: dst is the channel's nb x nb complex matrix (row-major over
// (b1, b2)), and for each primary a the row t1 gains
//
//	dst[t1*nb+t2] += complex(x*re2 + y*im2, y*re2 - x*im2)
//
// where (x, y) = xy[a*2nb + 2*t1 {, +1}] is the weighted first leg and
// (re2, im2) = a2[a*2nb + 2*t2 {, +1}] the unweighted second leg, both
// packed (re, im) pairs with per-primary stride 2*nb. This is k
// back-to-back dense per-primary updates fused so the channel's dst tile is
// loaded and stored once per call instead of once per (primary, row) — the
// cache shape of the engine's unit-level zeta stage. The vector path holds
// the tile in registers as blocks of up to 12 rows x 2 eight-float strips
// (nb 10: a 10 x 2 and a 10 x 1 block) across all k primaries, and derives
// the conjugate and swapped interleavings of the second leg once per strip
// and primary (an odd-lane sign flip and a pair swap), so callers fill one
// packed slab per leg.
func ZetaBatch(dst []complex128, a2, xy []float64, nb, k int) {
	if nb <= 0 || k <= 0 {
		return
	}
	if len(dst) != nb*nb || len(a2) < k*2*nb || len(xy) < k*2*nb {
		panic("sphharm: ZetaBatch shape mismatch")
	}
	zetaBatch(dst, a2, xy, nb, k)
}

// zetaBatchGeneric is the pure-Go body of ZetaBatch, rounded as
// zetaBatchAsm rounds it: per element and primary, the x leg's FMA, then the
// y leg's.
func zetaBatchGeneric(dst []complex128, a2, xy []float64, nb, k int) {
	for a := 0; a < k; a++ {
		ao := a * 2 * nb
		for t1 := 0; t1 < nb; t1++ {
			x := xy[ao+2*t1]
			y := xy[ao+2*t1+1]
			row := dst[t1*nb : t1*nb+nb]
			for t2, v := range row {
				re2 := a2[ao+2*t2]
				im2 := a2[ao+2*t2+1]
				row[t2] = complex(math.FMA(y, im2, math.FMA(x, re2, real(v))),
					math.FMA(y, re2, math.FMA(x, -im2, imag(v))))
			}
		}
	}
}

// ZetaBatchIso is ZetaBatch's compacted real form for the engine's
// IsotropicOnly fast ladder. Isotropic channels pair an (l, m) slot with
// itself, and every isotropic consumer reads only the real part of the
// resulting zeta, so the update per primary a and row t1 collapses to
//
//	dst[t1*nb+t2] += x*re[t2] + y*im[t2],  x = w[a]*re[t1], y = w[a]*im[t1]
//
// over a real nb x nb tile — half the arithmetic and half the tile traffic
// of the complex batch. a2 carries split halves per primary (re at
// [a*2nb, a*2nb+nb), im at [a*2nb+nb, a*2nb+2nb)) so both legs stream
// contiguously with no deinterleave, and w carries the k primary weights —
// the weighted leg is derived in-register instead of materialized by the
// caller. The vector path blocks the tile as ZetaBatch's does, up to 12
// rows x 2 strips (nb 10: one 10 x 2 block). dst must hold nb*nb values, a2
// at least k*2*nb, w at least k.
func ZetaBatchIso(dst, a2, w []float64, nb, k int) {
	if nb <= 0 || k <= 0 {
		return
	}
	if len(dst) != nb*nb || len(a2) < k*2*nb || len(w) < k {
		panic("sphharm: ZetaBatchIso shape mismatch")
	}
	zetaBatchIso(dst, a2, w, nb, k)
}

// zetaBatchIsoGeneric is the pure-Go body of ZetaBatchIso, rounded as
// zetaBatchIsoAsm rounds it: the weighted leg's products once, then two FMAs.
func zetaBatchIsoGeneric(dst, a2, w []float64, nb, k int) {
	for a := 0; a < k; a++ {
		ao := a * 2 * nb
		pw := w[a]
		re2 := a2[ao : ao+nb]
		im2 := a2[ao+nb : ao+2*nb]
		for t1 := 0; t1 < nb; t1++ {
			x := float64(pw * re2[t1])
			y := float64(pw * im2[t1])
			row := dst[t1*nb : t1*nb+nb]
			for t2, v := range row {
				row[t2] = math.FMA(y, im2[t2], math.FMA(x, re2[t2], v))
			}
		}
	}
}

// Reduce folds a lane-striped accumulator into plain sums: the single
// reduction per primary that replaces N/8 in-loop reductions (Sec. 3.3.2).
// out must have length len(acc)/Lanes; it is overwritten. The vector
// dispatch performs the identical pairwise tree in-register, so its results
// are bitwise equal to the generic body.
func Reduce(acc []float64, out []float64) {
	if len(acc) != len(out)*Lanes {
		panic("sphharm: Reduce length mismatch")
	}
	reduce(acc, out, false)
}

// ReduceClear is Reduce that also zeroes acc behind its loads, in one pass
// over the accumulator. The sums are bitwise those of Reduce. It is the
// per-bin reference ReduceBins is pinned against.
func ReduceClear(acc []float64, out []float64) {
	if len(acc) != len(out)*Lanes {
		panic("sphharm: ReduceClear length mismatch")
	}
	reduce(acc, out, true)
}

// reduceGeneric is the pure-Go body of Reduce and ReduceClear.
func reduceGeneric(acc []float64, out []float64, zero bool) {
	for i := range out {
		a := (*[Lanes]float64)(acc[i*Lanes : i*Lanes+Lanes])
		out[i] = laneSum(a)
		if zero {
			*a = [Lanes]float64{}
		}
	}
}

// laneSum is the pairwise tree every lane fold ends in, matching a vector
// fold: (a0+a1)+(a2+a3), then +((a4+a5)+(a6+a7)).
func laneSum(a *[Lanes]float64) float64 {
	s01 := a[0] + a[1]
	s23 := a[2] + a[3]
	s45 := a[4] + a[5]
	s67 := a[6] + a[7]
	return (s01 + s23) + (s45 + s67)
}

// BinStride returns the row length of ReduceBins' output for nb bins: nb
// rounded up to whole lane groups, so every row is a run of whole vectors
// over bins.
func BinStride(nb int) int { return (nb + Lanes - 1) &^ (Lanes - 1) }

// ReduceBins is Reduce over all bin accumulators of a primary at once,
// transposed: acc holds the nb = len(cnt) lane-striped accumulators end to
// end (bin b's ns = len(acc)/(nb*Lanes) groups at
// [b*ns*Lanes, (b+1)*ns*Lanes)), and sum i of bin b lands at
// out[i*BinStride(nb)+b], so every sum is a row over bins — the layout
// YlmTable.AlmBins converts. cnt holds the primary's pair count per bin: a
// bin without pairs reads as all +0 whatever its accumulator holds (the
// engine fills accumulators with Kernel.SumTile and never clears them), and
// so do the padding columns b >= nb. acc is left as it was. Each sum is
// bitwise Reduce's: the vector body runs reduceAsm's tree with the eight
// groups taken from eight bins instead of eight consecutive sums.
func ReduceBins(acc []float64, cnt []int32, out []float64) {
	nb := len(cnt)
	if nb == 0 || len(acc)%(nb*Lanes) != 0 || len(out) != len(acc)/(nb*Lanes)*BinStride(nb) {
		panic("sphharm: ReduceBins shape mismatch")
	}
	reduceBins(acc, out, cnt, len(acc)/(nb*Lanes))
}

// reduceBinsGeneric is the pure-Go body of ReduceBins.
func reduceBinsGeneric(acc, out []float64, cnt []int32, ns int) {
	ld := BinStride(len(cnt))
	clear(out)
	for b, n := range cnt {
		if n == 0 {
			continue
		}
		a := acc[b*ns*Lanes : (b+1)*ns*Lanes]
		for i := 0; i < ns; i++ {
			out[i*ld+b] = laneSum((*[Lanes]float64)(a[i*Lanes : i*Lanes+Lanes]))
		}
	}
}
