//go:build amd64

package lanes

// Implemented in lanes_amd64.s and crc64_amd64.s. The repo carries no
// dependencies, so x/sys/cpu is not available and feature detection is raw
// CPUID/XGETBV.
func cpuidAsm(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbvAsm() (eax, edx uint32)

//go:noescape
func foldCLMUL(s uint64, p []byte, lane *[16]byte)

var hasAVX512 = detectAVX512()

// hasCLMUL: PCLMULQDQ (CPUID.1:ECX bit 1) is all the fold needs beyond SSE2.
var hasCLMUL = func() bool { _, _, c1, _ := cpuidAsm(1, 0); return c1&(1<<1) != 0 }()

// HasAVX512 reports whether the CPU implements AVX-512F plus FMA and the OS
// context-switches the full ZMM + opmask register state.
func HasAVX512() bool { return hasAVX512 }

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
