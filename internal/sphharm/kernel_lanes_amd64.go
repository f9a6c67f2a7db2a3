//go:build amd64

package sphharm

import (
	"math/bits"

	"galactos/internal/geom"
	"galactos/internal/lanes"
)

// AVX-512 dispatch for the lane primitives. The kernel's Lanes = 8 float64
// sub-accumulator is exactly one 512-bit ZMM register — the vector shape the
// paper's Xeon Phi kernel was designed around — so the hot loops map onto
// VADDPD / VFMADD231PD / VMULPD over whole chunks, with AVX-512 write masks
// covering the tail so the lane assignment (pair j -> lane j&7) matches the
// generic code exactly. The process's dispatch decision lives in
// internal/lanes (a CPUID probe); any amd64 host without OS-enabled
// AVX-512F+FMA keeps the pure-Go bodies. The primitives are swapped in by
// rebinding the package function variables, so the per-call dispatch cost
// is one indirect call.
//
// Numerical note: the vector paths split each lane's additions into a few
// independent chains and contract multiply-add pairs into true FMAs, and
// the portable bodies do the same — the same chains, math.FMA where the asm
// fuses, the same fold — so every primitive returns the same bits under
// either binding, and so does every result built from them
// (TestKernelDispatchAgreesWithGeneric and its siblings pin each primitive;
// the scenario goldens pin whole runs).

// Implemented in kernel_lanes_amd64.s. Each trusts the driving slice's
// length (ws for the ladder, c for the rotation, src for a row, dst for
// mulCols)
// exactly like its generic counterpart; the exported wrappers check shapes.
// The primitives, by engine stage:
//
//   - consume: pairColumnsAsm (tile assembly's sweep, the radial frame
//     applied in-register), ladderAsm (one chunk in one call: the z-power
//     hoist, then the whole ladder; fresh starts the accumulator at +0
//     without reading it), and rowLanesAsm, rotateAsm, mulColsAsm (its
//     steps, the row-by-row form it is pinned against);
//   - self-count: legendreMomentsAsm (the moments recurrence, two
//     registers of pairs side by side);
//   - per-primary tail: reduceBinsAsm (all bins' lane folds, transposed to
//     rows over bins) and almBinsAsm (a_lm rows over bins, stored into the
//     unit slabs);
//   - zeta: zetaBatchAsm, zetaBatchIsoAsm;
//   - references and probes, off the engine's path: reduceAsm (Reduce,
//     ReduceClear) and almRIAsm (AlmRI).
func ladderAsm(acc, c, s, ws, xs, ys, zs, zpow []float64, zcap, l int, fresh bool)
func rowLanesAsm(acc, src, zpow []float64, zcap int)
func rotateAsm(c, s, xs, ys []float64)
func mulColsAsm(dst, a, b []float64)
func almRIAsm(blocks []almBlock, cols, m, re, im []float64)
func zetaBatchAsm(dst []complex128, a2, xy []float64, nb, k int)
func zetaBatchIsoAsm(dst, a2, w []float64, nb, k int)
func reduceAsm(acc, out []float64, zero bool)
func reduceBinsAsm(acc, out []float64, cnt []int32, ns int)
func almBinsAsm(slots []binSlot, coef, sums, scale, dst, w []float64, nb, stride int)

// legendreMomentsAsm is called with a stack array of entries, which must
// not escape.
//
//go:noescape
func legendreMomentsAsm(zs, ws, out []float64, ents []momEntry, nL int)
func pairColumnsAsm(sh *PairShell, frame *geom.Rotation, pts []geom.Vec3, ws []float64, pi int32, ids []int32, out *PairCols) int

func init() {
	if lanes.Vector() {
		bindVectorLanes()
	}
}

// bindVectorLanes rebinds every lane primitive to its AVX-512 body. Callers
// (init here, SetLaneDispatch in kernel.go) only reach it when lanes.Vector()
// holds.
func bindVectorLanes() {
	ladder = ladderAsm
	rowLanes = rowLanesAsm
	rotate = rotateAsm
	mulCols = mulColsAsm
	almRI = almRIVector
	zetaBatch = zetaBatchAsm
	zetaBatchIso = zetaBatchIsoAsm
	reduce = reduceAsm
	reduceBins = reduceBinsAsm
	almBins = almBinsVector
	moments = legendreMomentsVector
	pairColumns = pairColumnsAsm
}

// almRIVector is the AVX-512 body of AlmRI.
func almRIVector(t *YlmTable, m, re, im []float64) {
	almRIAsm(t.blocks, t.cols, m, re, im)
}

// almBinsVector is the AVX-512 body of AlmBins and AlmBinsPacked.
func almBinsVector(t *YlmTable, sums, scale, dst, w []float64, nb, stride int) {
	almBinsAsm(t.binSlots, t.binCoef, sums, scale, dst, w, nb, stride)
}

// momEntry is one register load of legendreMomentsAsm: the pairs at byte
// offset zoff of zs and ws, expanded into the lanes of mask, whose group
// sums join the moments row at byte offset row of out.
type momEntry struct{ zoff, mask, row int64 }

// momRem holds, per tile remainder r = len % 8, the expand masks of the (at
// most two) loads that carry it after the tile's whole registers: its group
// of four (if r >= 4) fills lanes 0-3, and each tail pair then takes a half
// of its own, at lane 0 or lane 4, the rest of the half +0. So the
// in-register fold of a tail half is (r + 0) + (0 + 0), which adds to
// out[n] exactly as the tail pair's r does (out[n] starts at +0 and is never
// -0), and an empty half adds +0.
var momRem = [Lanes][2]int64{{}, {0x01}, {0x11}, {0x11, 0x01}, {0x0f}, {0x1f}, {0x1f, 0x01}, {0x1f, 0x11}}

// legendreMomentsVector is the AVX-512 body of LegendreMoments (ends nil)
// and LegendreMomentsTiles: it lists every tile's register loads in order —
// the whole ones, then the remainder's by momRem — and hands them to
// legendreMomentsAsm in batches of an even count, a load of nothing padding
// the last, so loads of neighbouring tiles share the recurrence.
func legendreMomentsVector(zs, ws []float64, ends []int32, out []float64) {
	clear(out)
	if len(out) == 0 {
		return
	}
	nL, tiles := len(out), 1
	if ends != nil {
		nL, tiles = len(out)/len(ends), len(ends)
	}
	var q [16]momEntry
	n := 0
	push := func(j int, mask int64, row int64) {
		q[n] = momEntry{zoff: int64(j) * 8, mask: mask, row: row}
		if n++; n == len(q) {
			legendreMomentsAsm(zs, ws, out, q[:], nL)
			n = 0
		}
	}
	beg := 0
	for t := 0; t < tiles; t++ {
		end := len(zs)
		if ends != nil {
			end = int(ends[t])
		}
		row := int64(t * nL * 8)
		j := beg
		for ; j+Lanes <= end; j += Lanes {
			push(j, 0xff, row)
		}
		for _, m := range momRem[end-j] {
			if m != 0 {
				push(j, m, row)
				j += bits.OnesCount64(uint64(m))
			}
		}
		beg = end
	}
	if n%2 != 0 {
		push(0, 0, q[n-1].row)
	}
	legendreMomentsAsm(zs, ws, out, q[:n], nL)
}
