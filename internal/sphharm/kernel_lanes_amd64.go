//go:build amd64

package sphharm

import (
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
// length (c for the ladder and the rotation, src for a row, dst for mulCols)
// exactly like its generic counterpart.
func ladderAsm(acc, c, s, xs, ys, zpow []float64, zcap, l int)
func rowLanesAsm(acc, src, zpow []float64, zcap int)
func rotateAsm(c, s, xs, ys []float64)
func mulColsAsm(dst, a, b []float64)
func almRIAsm(blocks []almBlock, cols, m, re, im []float64)
func zetaBatchAsm(dst []complex128, a2, xy []float64, nb, k int)
func zetaBatchIsoAsm(dst, a2, w []float64, nb, k int)
func reduceAsm(acc, out []float64, zero bool)
func pairColumnsAsm(sh *PairShell, pts []geom.Vec3, ws []float64, pi int32, ids []int32, out *PairCols) int

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
	pairColumns = pairColumnsAsm
}

// almRIVector is the AVX-512 body of AlmRI.
func almRIVector(t *YlmTable, m, re, im []float64) {
	almRIAsm(t.blocks, t.cols, m, re, im)
}
