//go:build amd64

#include "textflag.h"

// AVX-512 bodies of boxMask16 and leafHits16 (see kdtree.go). Both are
// subtract, multiply, add and compare only — no FMA, the adds in the portable
// body's (x + y) + z order — so each returns exactly the portable body's
// value. Only Z16-Z24 are used: the high registers have no legacy-SSE upper
// state, so no VZEROUPPER is needed on return.

// func boxMask16AVX512(b *boxes16[float32], cx, cy, cz, r2 float32) uint16
// Bit j of the result: sum over X, Y, Z of max(lo-c, c-hi, 0)^2 <= r2 for
// box j. b's columns are minX, maxX, minY, maxY, minZ, maxZ at 64-byte steps.
TEXT ·boxMask16AVX512(SB), NOSPLIT, $0-26
	MOVQ         b+0(FP), SI
	VBROADCASTSS cx+8(FP), Z16
	VBROADCASTSS cy+12(FP), Z17
	VBROADCASTSS cz+16(FP), Z18
	VBROADCASTSS r2+20(FP), Z19
	VPXORD       Z20, Z20, Z20

	VMOVUPS (SI), Z21
	VSUBPS  Z16, Z21, Z21    // minX - cx
	VSUBPS  64(SI), Z16, Z22 // cx - maxX
	VMAXPS  Z22, Z21, Z21
	VMAXPS  Z20, Z21, Z21
	VMULPS  Z21, Z21, Z23

	VMOVUPS 128(SI), Z21
	VSUBPS  Z17, Z21, Z21
	VSUBPS  192(SI), Z17, Z22
	VMAXPS  Z22, Z21, Z21
	VMAXPS  Z20, Z21, Z21
	VMULPS  Z21, Z21, Z24
	VADDPS  Z24, Z23, Z23

	VMOVUPS 256(SI), Z21
	VSUBPS  Z18, Z21, Z21
	VSUBPS  320(SI), Z18, Z22
	VMAXPS  Z22, Z21, Z21
	VMAXPS  Z20, Z21, Z21
	VMULPS  Z21, Z21, Z24
	VADDPS  Z24, Z23, Z23

	VCMPPS $2, Z19, Z23, K1  // sum <= r2
	KMOVW  K1, AX
	MOVW   AX, ret+24(FP)
	RET

// func leafHits16AVX512(c *chunk[float32], cx, cy, cz, r2 float32, out *[16]int32) int
// Compresses the ids of the lanes with ((dx^2 + dy^2) + dz^2) <= r2 to the
// front of out (all 16 lanes of out are written) and returns their count.
// c's columns are x, y, z, id at 64-byte steps.
TEXT ·leafHits16AVX512(SB), NOSPLIT, $0-40
	MOVQ         c+0(FP), SI
	MOVQ         out+24(FP), DI
	VBROADCASTSS cx+8(FP), Z16
	VBROADCASTSS cy+12(FP), Z17
	VBROADCASTSS cz+16(FP), Z18
	VBROADCASTSS r2+20(FP), Z19

	VMOVUPS (SI), Z20
	VSUBPS  Z16, Z20, Z20
	VMULPS  Z20, Z20, Z20
	VMOVUPS 64(SI), Z21
	VSUBPS  Z17, Z21, Z21
	VMULPS  Z21, Z21, Z21
	VADDPS  Z21, Z20, Z20
	VMOVUPS 128(SI), Z21
	VSUBPS  Z18, Z21, Z21
	VMULPS  Z21, Z21, Z21
	VADDPS  Z21, Z20, Z20

	VCMPPS        $2, Z19, Z20, K1 // d2 <= r2
	VMOVDQU32     192(SI), Z22
	VPCOMPRESSD.Z Z22, K1, Z23
	VMOVDQU32     Z23, (DI)
	KMOVW         K1, AX
	POPCNTL       AX, AX
	MOVQ          AX, ret+32(FP)
	RET
