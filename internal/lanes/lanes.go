// Package lanes holds the process's one lane-dispatch decision: whether the
// SIMD bodies (AVX-512 on amd64) or the portable pure-Go bodies back the
// lane primitives of internal/sphharm and the gather tests of
// internal/kdtree. The CPUID probe runs once at init; the environment
// variable GALACTOS_LANE_DISPATCH=generic forces the portable bodies at
// process start even on AVX-512 hosts (CI's second test pass pins the
// pure-Go fallback with it).
package lanes

import "os"

var vector = HasAVX512() && os.Getenv("GALACTOS_LANE_DISPATCH") != "generic"

// Vector reports whether the SIMD bodies are selected.
func Vector() bool { return vector }

// Set selects the SIMD bodies (kept only on hosts that have them) or the
// portable ones, and returns Vector(). The switch is process-global and not
// synchronized against running kernels; sphharm.SetLaneDispatch, which also
// rebinds its primitives, is the caller.
func Set(v bool) bool {
	vector = v && HasAVX512()
	return vector
}
