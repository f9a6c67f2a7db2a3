//go:build !amd64

package lanes

// HasAVX512 reports whether the host has the SIMD bodies: never, off amd64.
func HasAVX512() bool { return false }
