package lanes

import (
	"hash/crc64"
	"math/bits"
)

var (
	ecmaTable = crc64.MakeTable(crc64.ECMA)
	clmul     = hasCLMUL // selects the PCLMULQDQ fold; tests switch it
	// foldKeys move a 128-bit lane D bits on (Gopal et al., Intel 2009): its
	// low (earlier) qword multiplies x^(D+63) mod P, its high one x^(D-1),
	// one below the lanes' degrees as a reflected carry-less product comes
	// out one bit up. D is 512 in the four-lane loop, then 128.
	foldKeys = [4]uint64{xPowMod(512 + 63), xPowMod(512 - 1), xPowMod(128 + 63), xPowMod(128 - 1)}
)

// xPowMod returns x^n mod P, P the ECMA polynomial, reflected as hash/crc64
// holds its register.
func xPowMod(n int) uint64 {
	v := uint64(1)
	for range n {
		v = v<<1 ^ v>>63*bits.Reverse64(crc64.ECMA)
	}
	return bits.Reverse64(v)
}

// CRC64 returns crc64.Update(crc, crc64.MakeTable(crc64.ECMA), p) bit for
// bit: the checksum of the result encoding and of the journal. With
// PCLMULQDQ, 64 bytes or more fold into one 16-byte lane congruent to them;
// the table finishes the lane and the tail, so no Barrett step is needed.
func CRC64(crc uint64, p []byte) uint64 {
	if clmul && len(p) >= 64 {
		n := len(p) &^ 15
		var lane [16]byte
		foldCLMUL(^crc, p[:n], &lane)
		// The register rode into the lane: resume from zero (^0 to Update).
		crc, p = crc64.Update(^uint64(0), ecmaTable, lane[:]), p[n:]
	}
	return crc64.Update(crc, ecmaTable, p)
}
