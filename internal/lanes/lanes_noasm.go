//go:build !amd64

package lanes

// HasAVX512 reports whether the host has the SIMD bodies: never, off amd64.
func HasAVX512() bool { return false }

const hasCLMUL = false // CRC64 takes the table path

func foldCLMUL(uint64, []byte, *[16]byte) { panic("lanes: no PCLMULQDQ fold") }
