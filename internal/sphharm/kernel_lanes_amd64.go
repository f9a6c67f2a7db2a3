//go:build amd64

package sphharm

import "os"

// AVX-512 dispatch for the lane primitives. The kernel's Lanes = 8 float64
// sub-accumulator is exactly one 512-bit ZMM register — the vector shape the
// paper's Xeon Phi kernel was designed around — so the hot loops map onto
// VADDPD / VFMADD231PD / VMULPD over whole chunks, with AVX-512 write masks
// covering the tail so the lane assignment (pair j -> lane j&7) matches the
// generic code exactly. Feature detection runs once at init via raw
// CPUID/XGETBV (the repo carries no dependencies, so x/sys/cpu is not
// available); any amd64 host without OS-enabled AVX-512F+FMA keeps the
// pure-Go bodies. The primitives are swapped in by rebinding the package
// function variables, so the per-call dispatch cost is one indirect call.
//
// Numerical note: the vector paths regroup each lane's additions into a few
// independent chains and contract multiply-add pairs into true FMAs, so
// results can differ from the generic path by normal rounding slack. All
// bitwise guarantees in the engine (dense-scan vs touched-list, backend
// equivalence) compare runs that share one dispatch decision, so they are
// unaffected.

// Implemented in kernel_lanes_amd64.s. Each trusts the driving slice's
// length (xy for the ladder and its rows, dst for the elementwise ops)
// exactly like its generic counterpart.
func cpuidAsm(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbvAsm() (eax, edx uint32)
func ladderAsm(acc, xk, xy, xs, ys, zpow []float64, zcap, l int)
func rowLanesAsm(acc, xy, zpow []float64, zcap int)
func mulIntoAsm(dst, src []float64)
func mulColsAsm(dst, a, b []float64)
func zetaBatchAsm(dst []complex128, a2, xy []float64, nb, k int)
func zetaBatchIsoAsm(dst, a2, w []float64, nb, k int)
func reduceAsm(acc, out []float64)

var useAVX512 = detectAVX512()

func init() {
	if useAVX512 {
		bindVectorLanes()
	}
	// GALACTOS_LANE_DISPATCH=generic forces the portable bodies at process
	// start even on AVX-512 hosts — CI's second test pass pins the pure-Go
	// fallback with it. SetLaneDispatch can still rebind later (the scenario
	// golden harness exercises both tags in one process).
	if os.Getenv("GALACTOS_LANE_DISPATCH") == "generic" {
		bindGenericLanes()
	}
}

// bindVectorLanes rebinds every lane primitive to its AVX-512 body. Callers
// (init here, SetLaneDispatch in kernel.go) only reach it when useAVX512
// already passed.
func bindVectorLanes() {
	ladder = ladderAsm
	rowLanes = rowLanesAsm
	mulInto = mulIntoAsm
	mulCols = mulColsAsm
	zetaBatch = zetaBatchAsm
	zetaBatchIso = zetaBatchIsoAsm
	reduce = reduceAsm
	laneDispatchVector = true
}

// detectAVX512 reports whether the CPU implements AVX-512F plus FMA and the
// OS context-switches the full ZMM + opmask register state.
func detectAVX512() bool {
	maxID, _, _, _ := cpuidAsm(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuidAsm(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
	)
	if c1&fma == 0 || c1&osxsave == 0 {
		return false
	}
	xlo, _ := xgetbvAsm()
	// XCR0 must cover XMM+YMM (bits 1-2) and opmask + both ZMM halves
	// (bits 5-7).
	const zmmState = 0x6 | 0xe0
	if xlo&zmmState != zmmState {
		return false
	}
	_, b7, _, _ := cpuidAsm(7, 0)
	const avx512f = 1 << 16
	return b7&avx512f != 0
}

// HasAVX512 reports whether the lane primitives run on the AVX-512 path
// (telemetry; the choice is made once at process start).
func HasAVX512() bool { return useAVX512 }
