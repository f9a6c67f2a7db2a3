package lanes

import (
	"hash/crc64"
	"math/rand"
	"testing"
)

// setCLMUL selects the PCLMULQDQ fold (kept only on hosts that have it) or
// the table, as Set does for the lane bodies, and returns the selection.
func setCLMUL(v bool) bool {
	clmul = v && hasCLMUL
	return clmul
}

// crcPaths runs f under each CRC64 body the host has, restoring the choice.
func crcPaths(t testing.TB, f func(t testing.TB, path string)) {
	defer setCLMUL(clmul)
	for _, fold := range []bool{true, false} {
		if setCLMUL(fold) != fold {
			t.Logf("no PCLMULQDQ on this host: table path only")
			continue
		}
		f(t, map[bool]string{true: "pclmulqdq", false: "table"}[fold])
	}
}

// TestCRC64MatchesHashCRC64 pins CRC64 to hash/crc64 bit for bit on both
// bodies: every length 0–4096 at every start misalignment 0–15, from three
// registers, and chained across a split.
func TestCRC64MatchesHashCRC64(t *testing.T) {
	tab := crc64.MakeTable(crc64.ECMA)
	buf := make([]byte, 4096+16)
	rand.New(rand.NewSource(1)).Read(buf)
	crcPaths(t, func(t testing.TB, path string) {
		for off := 0; off < 16; off++ {
			for _, init := range []uint64{0, 1 << 63, ^uint64(0)} {
				want := init // hash/crc64 over buf[off:off+n], a byte at a time
				for n := 0; n <= 4096; n++ {
					p := buf[off : off+n]
					if n > 0 {
						want = crc64.Update(want, tab, p[n-1:])
					}
					if got := CRC64(init, p); got != want {
						t.Fatalf("%s: len %d, offset %d, init %#x: %#016x, want %#016x", path, n, off, init, got, want)
					}
					if off != 0 || n%7 != 0 {
						continue
					}
					for _, k := range []int{1, 15, 63, 64, n / 2, n - 1} {
						if k >= 0 && k <= n && CRC64(CRC64(init, p[:k]), p[k:]) != want {
							t.Fatalf("%s: len %d split at %d, init %#x: chained update differs", path, n, k, init)
						}
					}
				}
			}
		}
	})
}

// FuzzCRC64: on any input, from any register, whole or split anywhere,
// both bodies give hash/crc64's value.
func FuzzCRC64(f *testing.F) {
	f.Add([]byte("123456789"), uint64(0), uint(4))
	f.Add(make([]byte, 200), ^uint64(0), uint(77))
	f.Fuzz(func(t *testing.T, p []byte, init uint64, split uint) {
		want := crc64.Update(init, crc64.MakeTable(crc64.ECMA), p)
		k := int(split % uint(len(p)+1))
		crcPaths(t, func(t testing.TB, path string) {
			if got := CRC64(init, p); got != want {
				t.Fatalf("%s: %#016x, want %#016x", path, got, want)
			}
			if got := CRC64(CRC64(init, p[:k]), p[k:]); got != want {
				t.Fatalf("%s: split at %d: %#016x, want %#016x", path, k, got, want)
			}
		})
	})
}
