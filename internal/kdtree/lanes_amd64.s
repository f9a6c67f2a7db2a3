//go:build amd64

#include "textflag.h"

// func gatherRunAVX512(groups []boxes16[float32], idx []int32, chunks []chunk[float32], cx, cy, cz, r2 float32, out []int32) int
// The AVX-512 body of gatherRun (see kdtree.go), the whole run in registers
// and a stack list. It takes the groups groups[i], i in idx, 8 at a time.
// First, with no branch on the data, the boxMask16 test of each group, the
// chunk ranges [c0, c1) of its passing leaves compressed onto the list in
// ascending lane order; then the leafHits16 test over each listed chunk,
// its hits compressed to the front of a 16-lane row stored at the next
// free id. Both tests are subtract, max, multiply, add and compare only —
// no FMA, the adds in the portable body's (x + y) + z order — so the list
// is exactly the portable body's. A group is minX, maxX, minY, maxY, minZ,
// maxZ, c0, c1 at 64-byte steps (512 bytes); a chunk is x, y, z, id (256
// bytes). The list holds 8·16 ranges, c0s at 0(SP) and c1s at 512(SP): each
// group stores a whole compressed row at the list's end, and the eighth
// starts at most at range 112. Only Z16-Z27 are used: the high registers
// have no legacy-SSE upper state, so no VZEROUPPER is needed on return.
TEXT ·gatherRunAVX512(SB), $1024-120
	MOVQ         groups_base+0(FP), R13
	MOVQ         idx_base+24(FP), R14
	MOVQ         idx_len+32(FP), CX
	MOVQ         chunks_base+48(FP), R8
	VBROADCASTSS cx+72(FP), Z16
	VBROADCASTSS cy+76(FP), Z17
	VBROADCASTSS cz+80(FP), Z18
	VBROADCASTSS r2+84(FP), Z19
	MOVQ         out_base+88(FP), DI
	MOVQ         DI, R9
	VPXORD       Z20, Z20, Z20
	TESTQ        CX, CX
	JZ           done

batch:
	MOVQ CX, R15
	CMPQ R15, $8
	JLE  sized
	MOVQ $8, R15

sized:
	XORQ BX, BX // groups tested
	XORQ DX, DX // ranges listed

group:
	MOVL    (R14)(BX*4), SI
	SHLQ    $9, SI
	ADDQ    R13, SI          // &groups[idx[i]]
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
	VMULPS  Z21, Z21, Z22
	VADDPS  Z22, Z23, Z23

	VMOVUPS 256(SI), Z21
	VSUBPS  Z18, Z21, Z21
	VSUBPS  320(SI), Z18, Z22
	VMAXPS  Z22, Z21, Z21
	VMAXPS  Z20, Z21, Z21
	VMULPS  Z21, Z21, Z22
	VADDPS  Z22, Z23, Z23

	VCMPPS        $2, Z19, Z23, K1 // sum <= r2
	VMOVDQU32     384(SI), Z21
	VPCOMPRESSD.Z Z21, K1, Z21
	VMOVDQU32     Z21, (SP)(DX*4)
	VMOVDQU32     448(SI), Z22
	VPCOMPRESSD.Z Z22, K1, Z22
	VMOVDQU32     Z22, 512(SP)(DX*4)
	KMOVW         K1, AX
	POPCNTL       AX, AX
	ADDQ          AX, DX
	INCQ          BX
	CMPQ          BX, R15
	JLT           group

	XORQ BX, BX
	TESTQ DX, DX
	JZ    nextbatch

leaf:
	MOVL (SP)(BX*4), R10    // c0
	MOVL 512(SP)(BX*4), R11 // c1
	SUBL R10, R11           // the leaf's chunk count
	JZ   nextleaf           // a never-hit lane, passed only when r2 is +Inf
	SHLQ $8, R10
	ADDQ R8, R10            // &chunks[c0]

chunk:
	VMOVUPS (R10), Z24
	VSUBPS  Z16, Z24, Z24
	VMULPS  Z24, Z24, Z24
	VMOVUPS 64(R10), Z25
	VSUBPS  Z17, Z25, Z25
	VMULPS  Z25, Z25, Z25
	VADDPS  Z25, Z24, Z24
	VMOVUPS 128(R10), Z25
	VSUBPS  Z18, Z25, Z25
	VMULPS  Z25, Z25, Z25
	VADDPS  Z25, Z24, Z24

	VCMPPS        $2, Z19, Z24, K2 // d2 <= r2
	VMOVDQU32     192(R10), Z26
	VPCOMPRESSD.Z Z26, K2, Z27
	VMOVDQU32     Z27, (DI)
	KMOVW         K2, AX
	POPCNTL       AX, AX
	LEAQ          (DI)(AX*4), DI
	ADDQ          $256, R10
	DECL          R11
	JNZ           chunk

nextleaf:
	INCQ BX
	CMPQ BX, DX
	JLT  leaf

nextbatch:
	LEAQ (R14)(R15*4), R14
	SUBQ R15, CX
	JNZ  batch

done:
	SUBQ R9, DI
	SHRQ $2, DI
	MOVQ DI, ret+112(FP)
	RET
