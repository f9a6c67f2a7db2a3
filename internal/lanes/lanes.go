// Package lanes holds the process's one lane-dispatch decision: whether the
// SIMD bodies (AVX-512 on amd64) or the portable pure-Go bodies back the
// lane primitives of internal/sphharm and the gather tests of
// internal/kdtree. The CPUID probe runs once at init and picks the SIMD
// bodies wherever the host has them; the two agree bit for bit, so the
// choice is one of speed, and tests switch it with Set.
//
// The same probe picks CRC64's body, a PCLMULQDQ fold or hash/crc64's
// table, equal bit for bit: the repository's one CRC-64.
package lanes

var vector = HasAVX512()

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
