//go:build amd64

#include "textflag.h"

// AVX-512 lane primitives (see kernel_lanes_amd64.go). All operate on the
// Lanes = 8 float64 accumulator group as one ZMM register and walk the pair
// columns in 512-bit steps; tails shorter than 8 pairs use an opmask so pair
// j still lands in lane j&7 (masked EVEX memory operands suppress faults on
// the masked-out lanes, so partial blocks never over-read). The ladder,
// row, rotate, mulCols, almRI, almBins, reduce and reduceBins bodies use
// only Z16-Z31: the high registers have no legacy-SSE upper state, so they
// need no VZEROUPPER on return. Four bodies use Z0-Z15 as well and end with
// VZEROUPPER: zetaBatchAsm and zetaBatchIsoAsm (up to 24 tile accumulators
// in registers), pairColumnsAsm (fourteen broadcast constants) and
// legendreMomentsAsm (two register sets of eight orders).

// laneGeometry<> splits a column of CX pairs the way every lane fold walks
// it: R10 = 32-pair quads (four accumulator chains), R11 = whole 8-pair
// blocks after them, CX = tail pairs with K1 their write mask (empty when
// CX is 0). Clobbers AX.
TEXT laneGeometry<>(SB), NOSPLIT, $0
	MOVQ  CX, R10
	SHRQ  $5, R10
	MOVQ  CX, R11
	ANDQ  $31, R11
	SHRQ  $3, R11
	ANDQ  $7, CX
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX
	KMOVW AX, K1
	RET

// mulColsBody<> writes the elementwise product of the columns at R14 and R15
// to the column at DX (which may be either) over the lane geometry above.
// Advances R14, R15 and DX; clobbers R8 and Z16.
TEXT mulColsBody<>(SB), NOSPLIT, $0
	LEAQ  (R11)(R10*4), R8
	TESTQ R8, R8
	JZ    mctail

mcloop:
	VMOVUPD (R14), Z16
	VMULPD  (R15), Z16, Z16
	VMOVUPD Z16, (DX)
	ADDQ    $64, R14
	ADDQ    $64, R15
	ADDQ    $64, DX
	DECQ    R8
	JNZ     mcloop

mctail:
	VMOVUPD.Z (R14), K1, Z16
	VMULPD.Z  (R15), Z16, K1, Z16
	VMOVUPD   Z16, K1, (DX)
	RET

// func mulColsAsm(dst, a, b []float64)
// dst = a .* b elementwise (the hoisted z-power column recurrence).
TEXT ·mulColsAsm(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DX
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), R14
	MOVQ b_base+48(FP), R15
	CALL laneGeometry<>(SB)
	CALL mulColsBody<>(SB)
	RET

// rotateBody<> advances the running power one order over the lane geometry:
// with c at R14, s at R15, x at AX and y at DX,
// (c, s) <- (fma(c, x, -(s*y)), fma(c, y, s*x)). Advances all four;
// clobbers R8 and Z16-Z18.
TEXT rotateBody<>(SB), NOSPLIT, $0
	LEAQ  (R11)(R10*4), R8
	TESTQ R8, R8
	JZ    rttail

rtloop:
	VMOVUPD     (R14), Z16
	VMOVUPD     (R15), Z17
	VMULPD      (DX), Z17, Z18
	VMULPD      (AX), Z17, Z17
	VFMADD231PD (DX), Z16, Z17
	VFMSUB132PD (AX), Z18, Z16
	VMOVUPD     Z16, (R14)
	VMOVUPD     Z17, (R15)
	ADDQ        $64, R14
	ADDQ        $64, R15
	ADDQ        $64, AX
	ADDQ        $64, DX
	DECQ        R8
	JNZ         rtloop

rttail:
	VMOVUPD.Z   (R14), K1, Z16
	VMOVUPD.Z   (R15), K1, Z17
	VMULPD.Z    (DX), Z17, K1, Z18
	VMULPD.Z    (AX), Z17, K1, Z17
	VFMADD231PD (DX), Z16, K1, Z17
	VFMSUB132PD (AX), Z18, K1, Z16
	VMOVUPD     Z16, K1, (R14)
	VMOVUPD     Z17, K1, (R15)
	RET

// func rotateAsm(c, s, xs, ys []float64)
// (c, s) <- (c*x - s*y, c*y + s*x) elementwise.
TEXT ·rotateAsm(SB), NOSPLIT, $0-96
	MOVQ c_base+0(FP), R14
	MOVQ c_len+8(FP), CX
	MOVQ s_base+24(FP), R15
	CALL laneGeometry<>(SB)
	MOVQ xs_base+48(FP), AX
	MOVQ ys_base+72(FP), DX
	CALL rotateBody<>(SB)
	RET

// func rowLanesAsm(acc, src, zpow []float64, zcap int)
// One whole ladder row in a single call: acc holds nq+1 lane groups, group 0
// gains the lane-striped sums of src and group q >= 1 the fused
// multiply-accumulated sums of src .* z^q, reading the hoisted z-power
// columns at stride zcap. This is the row-by-row form the fused ladder is
// pinned against; ladderAsm runs the same rowBody<> for chunks with a quad.
TEXT ·rowLanesAsm(SB), NOSPLIT, $0-80
	KXNORW K7, K7, K7 // rowBody<> reads every lane of acc
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), R8
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	MOVQ zpow_base+48(FP), BX
	MOVQ zcap+72(FP), R9
	SHLQ $3, R9 // z-power column stride, bytes
	SHRQ $3, R8 // lane groups = nq+1
	CALL laneGeometry<>(SB)
	CALL rowBody<>(SB)
	RET

// rowBody<> folds one ladder row: DI = the row's first lane group (advanced
// past the row on return), R8 = its group count, SI = src, BX = the z-power
// columns at byte stride R9, the lane geometry in R10, R11, CX, K1, and K7
// the lanes it reads from acc (none: every group starts from +0). Per
// group the lane sums run as four independent chains over the quads (blocks
// and the tail extend chain 0) and fold (c0 + c1) + (c2 + c3). Clobbers AX,
// BX, DX, R8, R14, R15 and Z16-Z27.
TEXT rowBody<>(SB), NOSPLIT, $0
	// Row 0: acc[0:8] += lane sums of src.
	VMOVUPD.Z (DI), K7, Z16
	VPXORQ  Z17, Z17, Z17
	VPXORQ  Z18, Z18, Z18
	VPXORQ  Z19, Z19, Z19
	MOVQ    SI, R14
	MOVQ    R10, DX
	TESTQ   DX, DX
	JZ      r0blocks

r0quad:
	VADDPD (R14), Z16, Z16
	VADDPD 64(R14), Z17, Z17
	VADDPD 128(R14), Z18, Z18
	VADDPD 192(R14), Z19, Z19
	ADDQ   $256, R14
	DECQ   DX
	JNZ    r0quad

r0blocks:
	MOVQ  R11, DX
	TESTQ DX, DX
	JZ    r0tail

r0block:
	VADDPD (R14), Z16, Z16
	ADDQ   $64, R14
	DECQ   DX
	JNZ    r0block

r0tail:
	TESTQ CX, CX
	JZ    r0fold
	VADDPD (R14), Z16, K1, Z16

r0fold:
	VADDPD  Z17, Z16, Z16
	VADDPD  Z19, Z18, Z18
	VADDPD  Z18, Z16, Z16
	VMOVUPD Z16, (DI)
	ADDQ    $64, DI

	DECQ R8
	JZ   rldone

	// Rows 1..nq: acc[q*8:] += lane sums of src .* z^q. Rows are consumed in
	// pairs so each src load feeds two z-power columns (25% fewer loads on
	// the load-bound ladder); an odd final row falls through to the single-
	// row loop.
rlpair:
	CMPQ R8, $2
	JB   rlsingle

	VMOVUPD.Z (DI), K7, Z16
	VPXORQ  Z17, Z17, Z17
	VPXORQ  Z18, Z18, Z18
	VPXORQ  Z19, Z19, Z19
	VMOVUPD.Z 64(DI), K7, Z24
	VPXORQ  Z25, Z25, Z25
	VPXORQ  Z26, Z26, Z26
	VPXORQ  Z27, Z27, Z27
	MOVQ    SI, R14
	MOVQ    BX, R15
	LEAQ    (BX)(R9*1), AX
	MOVQ    R10, DX
	TESTQ   DX, DX
	JZ      rpblocks

rpquad:
	VMOVUPD (R14), Z20
	VMOVUPD 64(R14), Z21
	VMOVUPD 128(R14), Z22
	VMOVUPD 192(R14), Z23
	VFMADD231PD (R15), Z20, Z16
	VFMADD231PD 64(R15), Z21, Z17
	VFMADD231PD 128(R15), Z22, Z18
	VFMADD231PD 192(R15), Z23, Z19
	VFMADD231PD (AX), Z20, Z24
	VFMADD231PD 64(AX), Z21, Z25
	VFMADD231PD 128(AX), Z22, Z26
	VFMADD231PD 192(AX), Z23, Z27
	ADDQ $256, R14
	ADDQ $256, R15
	ADDQ $256, AX
	DECQ DX
	JNZ  rpquad

rpblocks:
	MOVQ  R11, DX
	TESTQ DX, DX
	JZ    rptail

rpblock:
	VMOVUPD (R14), Z20
	VFMADD231PD (R15), Z20, Z16
	VFMADD231PD (AX), Z20, Z24
	ADDQ $64, R14
	ADDQ $64, R15
	ADDQ $64, AX
	DECQ DX
	JNZ  rpblock

rptail:
	TESTQ CX, CX
	JZ    rpfold
	VMOVUPD.Z (R14), K1, Z20
	VFMADD231PD (R15), Z20, K1, Z16
	VFMADD231PD (AX), Z20, K1, Z24

rpfold:
	VADDPD  Z17, Z16, Z16
	VADDPD  Z19, Z18, Z18
	VADDPD  Z18, Z16, Z16
	VMOVUPD Z16, (DI)
	VADDPD  Z25, Z24, Z24
	VADDPD  Z27, Z26, Z26
	VADDPD  Z26, Z24, Z24
	VMOVUPD Z24, 64(DI)
	ADDQ    $128, DI
	LEAQ    (BX)(R9*2), BX
	SUBQ    $2, R8
	JMP     rlpair

rlsingle:
	TESTQ R8, R8
	JZ    rldone
	VMOVUPD.Z (DI), K7, Z16
	VPXORQ  Z17, Z17, Z17
	VPXORQ  Z18, Z18, Z18
	VPXORQ  Z19, Z19, Z19
	MOVQ    SI, R14
	MOVQ    BX, R15
	MOVQ    R10, DX
	TESTQ   DX, DX
	JZ      rlblocks

rlquad:
	VMOVUPD (R14), Z20
	VMOVUPD 64(R14), Z21
	VMOVUPD 128(R14), Z22
	VMOVUPD 192(R14), Z23
	VFMADD231PD (R15), Z20, Z16
	VFMADD231PD 64(R15), Z21, Z17
	VFMADD231PD 128(R15), Z22, Z18
	VFMADD231PD 192(R15), Z23, Z19
	ADDQ $256, R14
	ADDQ $256, R15
	DECQ DX
	JNZ  rlquad

rlblocks:
	MOVQ  R11, DX
	TESTQ DX, DX
	JZ    rltail

rlblock:
	VMOVUPD (R14), Z20
	VFMADD231PD (R15), Z20, Z16
	ADDQ $64, R14
	ADDQ $64, R15
	DECQ DX
	JNZ  rlblock

rltail:
	TESTQ CX, CX
	JZ    rlfold
	VMOVUPD.Z (R14), K1, Z20
	VFMADD231PD (R15), Z20, K1, Z16

rlfold:
	VADDPD  Z17, Z16, Z16
	VADDPD  Z19, Z18, Z18
	VADDPD  Z18, Z16, Z16
	VMOVUPD Z16, (DI)
	ADDQ    $64, DI

rldone:
	RET

// hoistBody<> writes the z-power columns of the z column at R14 into the
// columns from BX at byte stride R9 — z^1 = z, then z^q = z^(q-1) .* z up
// to q = R12 >= 1, the products mulColsBody<> forms column by column — one
// 8-pair block at a time over the lane geometry, its powers in registers.
// Advances R14 and BX; clobbers AX, DX, R8 and Z16-Z17.
TEXT hoistBody<>(SB), NOSPLIT, $0
	LEAQ  (R11)(R10*4), R8
	TESTQ R8, R8
	JZ    hstail

hsblock:
	VMOVUPD (R14), Z16
	VMOVUPD Z16, (BX)
	VMOVAPD Z16, Z17
	LEAQ    (BX)(R9*1), DX
	MOVQ    R12, AX
	DECQ    AX
	JZ      hsnext

hspow:
	VMULPD  Z16, Z17, Z17
	VMOVUPD Z17, (DX)
	ADDQ    R9, DX
	DECQ    AX
	JNZ     hspow

hsnext:
	ADDQ $64, R14
	ADDQ $64, BX
	DECQ R8
	JNZ  hsblock

hstail:
	TESTQ     CX, CX
	JZ        hsdone
	VMOVUPD.Z (R14), K1, Z16
	VMOVUPD   Z16, K1, (BX)
	VMOVAPD   Z16, Z17
	LEAQ      (BX)(R9*1), DX
	MOVQ      R12, AX
	DECQ      AX
	JZ        hsdone

hstpow:
	VMULPD  Z16, Z17, Z17
	VMOVUPD Z17, K1, (DX)
	ADDQ    R9, DX
	DECQ    AX
	JNZ     hstpow

hsdone:
	RET

// func ladderAsm(acc, c, s, ws, xs, ys, zs, zpow []float64, zcap, l int, fresh bool)
// One chunk (n = len(ws) pairs) in a single call: the operations of
// ladderRows in the same order — the z-power hoist into zpow (hoistBody<>),
// the m = 0 row of the weights, then per order the running-power update and
// the Re and Im rows — without returning to Go, so the result is
// bit-identical to the row-by-row path.
//
// A chunk with a 32-pair quad walks the c / s scratch columns through
// mulColsBody<>, rotateBody<> and rowBody<>. A shorter chunk is at most four
// 8-pair vectors per column, so both halves of the running power stay in
// registers (c in Z24-Z27, loaded from ws, s in Z20-Z23, vector v under
// mask K(2+v)) and a lane group is one load, four masked ops extending chain
// 0 in pair order, and one store; an order's Re and Im rows advance
// together, group by group, as two independent chains over the same z-power
// column. The three idle chains of the row-by-row fold hold +0 there:
// (x + 0) + (0 + 0) is x + 0, one add of the zero register Z28.
TEXT ·ladderAsm(SB), NOSPLIT, $0-209
	MOVBLZX fresh+208(FP), AX
	DECL    AX
	KMOVW   AX, K7 // the lanes read from acc: none when fresh
	MOVQ acc_base+0(FP), DI
	MOVQ ws_len+80(FP), CX
	MOVQ zcap+192(FP), R9
	SHLQ $3, R9 // z-power column stride, bytes
	MOVQ l+200(FP), R12 // l - m + 1: the lane groups of order m's rows
	CALL  laneGeometry<>(SB)
	TESTQ R12, R12
	JZ    ldpath
	MOVQ  zs_base+144(FP), R14
	MOVQ  zpow_base+168(FP), BX
	CALL  hoistBody<>(SB)

ldpath:
	TESTQ R10, R10 // no quad: n < 32
	JZ    ldshort
	MOVQ ws_base+72(FP), SI // m = 0 row
	MOVQ zpow_base+168(FP), BX
	LEAQ 1(R12), R8
	CALL rowBody<>(SB)
	TESTQ R12, R12
	JZ   lddone
	MOVQ SI, R14 // m = 1: s = ws .* ys, c = ws .* xs
	MOVQ ys_base+120(FP), R15
	MOVQ s_base+48(FP), DX
	CALL mulColsBody<>(SB)
	MOVQ SI, R14
	MOVQ xs_base+96(FP), R15
	MOVQ c_base+24(FP), DX
	CALL mulColsBody<>(SB)

ldm:
	MOVQ c_base+24(FP), SI
	MOVQ zpow_base+168(FP), BX
	MOVQ R12, R8
	CALL rowBody<>(SB)
	MOVQ s_base+48(FP), SI
	MOVQ zpow_base+168(FP), BX
	MOVQ R12, R8
	CALL rowBody<>(SB)
	DECQ R12
	JZ   lddone
	MOVQ c_base+24(FP), R14
	MOVQ SI, R15
	MOVQ xs_base+96(FP), AX
	MOVQ ys_base+120(FP), DX
	CALL rotateBody<>(SB)
	JMP  ldm

ldshort:
	MOVQ  ws_len+80(FP), CX
	MOVL  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	KMOVW AX, K2
	SHRQ  $8, AX
	KMOVW AX, K3
	SHRQ  $8, AX
	KMOVW AX, K4
	SHRQ  $8, AX
	KMOVW AX, K5
	VPXORQ Z28, Z28, Z28
	MOVQ zpow_base+168(FP), R11
	MOVQ ws_base+72(FP), SI
	VMOVUPD.Z (SI), K2, Z24
	VMOVUPD.Z 64(SI), K3, Z25
	VMOVUPD.Z 128(SI), K4, Z26
	VMOVUPD.Z 192(SI), K5, Z27
	MOVQ xs_base+96(FP), SI
	MOVQ ys_base+120(FP), R10

	// m = 0 row: l + 1 groups of c.
	MOVQ R11, BX
	LEAQ 1(R12), R8
	VMOVUPD.Z (DI), K7, Z16
	VADDPD  Z24, Z16, K2, Z16
	VADDPD  Z25, Z16, K3, Z16
	VADDPD  Z26, Z16, K4, Z16
	VADDPD  Z27, Z16, K5, Z16
	JMP     ls0fold

ls0group:
	VMOVUPD.Z (DI), K7, Z16
	VFMADD231PD (BX), Z24, K2, Z16
	VFMADD231PD 64(BX), Z25, K3, Z16
	VFMADD231PD 128(BX), Z26, K4, Z16
	VFMADD231PD 192(BX), Z27, K5, Z16
	ADDQ R9, BX

ls0fold:
	VADDPD  Z28, Z16, Z16
	VMOVUPD Z16, (DI)
	ADDQ    $64, DI
	DECQ    R8
	JNZ     ls0group
	TESTQ   R12, R12
	JZ      lddone
	VMULPD.Z (R10), Z24, K2, Z20 // m = 1: s = c .* ys, c = c .* xs
	VMULPD.Z 64(R10), Z25, K3, Z21
	VMULPD.Z 128(R10), Z26, K4, Z22
	VMULPD.Z 192(R10), Z27, K5, Z23
	VMULPD.Z (SI), Z24, K2, Z24
	VMULPD.Z 64(SI), Z25, K3, Z25
	VMULPD.Z 128(SI), Z26, K4, Z26
	VMULPD.Z 192(SI), Z27, K5, Z27

lsm:
	// Re row at DI (c), Im row right after it at DX (s), R12 groups each.
	MOVQ R12, DX
	SHLQ $6, DX
	ADDQ DI, DX
	MOVQ R11, BX
	MOVQ R12, R8
	VMOVUPD.Z (DI), K7, Z16
	VMOVUPD.Z (DX), K7, Z17
	VADDPD  Z24, Z16, K2, Z16
	VADDPD  Z20, Z17, K2, Z17
	VADDPD  Z25, Z16, K3, Z16
	VADDPD  Z21, Z17, K3, Z17
	VADDPD  Z26, Z16, K4, Z16
	VADDPD  Z22, Z17, K4, Z17
	VADDPD  Z27, Z16, K5, Z16
	VADDPD  Z23, Z17, K5, Z17
	JMP     lsmfold

lsmgroup:
	VMOVUPD.Z (DI), K7, Z16
	VMOVUPD.Z (DX), K7, Z17
	VFMADD231PD (BX), Z24, K2, Z16
	VFMADD231PD (BX), Z20, K2, Z17
	VFMADD231PD 64(BX), Z25, K3, Z16
	VFMADD231PD 64(BX), Z21, K3, Z17
	VFMADD231PD 128(BX), Z26, K4, Z16
	VFMADD231PD 128(BX), Z22, K4, Z17
	VFMADD231PD 192(BX), Z27, K5, Z16
	VFMADD231PD 192(BX), Z23, K5, Z17
	ADDQ R9, BX

lsmfold:
	VADDPD  Z28, Z16, Z16
	VADDPD  Z28, Z17, Z17
	VMOVUPD Z16, (DI)
	VMOVUPD Z17, (DX)
	ADDQ    $64, DI
	ADDQ    $64, DX
	DECQ    R8
	JNZ     lsmgroup
	MOVQ    DX, DI
	DECQ    R12
	JZ      lddone
	// (c, s) <- (fma(c, x, -(s*y)), fma(c, y, s*x)), as rotateBody<>.
	VMULPD.Z    (R10), Z20, K2, Z16
	VMULPD.Z    (SI), Z20, K2, Z20
	VFMADD231PD (R10), Z24, K2, Z20
	VFMSUB132PD (SI), Z16, K2, Z24
	VMULPD.Z    64(R10), Z21, K3, Z17
	VMULPD.Z    64(SI), Z21, K3, Z21
	VFMADD231PD 64(R10), Z25, K3, Z21
	VFMSUB132PD 64(SI), Z17, K3, Z25
	VMULPD.Z    128(R10), Z22, K4, Z18
	VMULPD.Z    128(SI), Z22, K4, Z22
	VFMADD231PD 128(R10), Z26, K4, Z22
	VFMSUB132PD 128(SI), Z18, K4, Z26
	VMULPD.Z    192(R10), Z23, K5, Z19
	VMULPD.Z    192(SI), Z23, K5, Z23
	VFMADD231PD 192(R10), Z27, K5, Z23
	VFMSUB132PD 192(SI), Z19, K5, Z27
	JMP         lsm

lddone:
	RET

// func almRIAsm(blocks []almBlock, cols, m, re, im []float64)
// The a_lm conversion as one matrix-vector product per almBlock: eight
// degrees of one order accumulate column by column, the block's column of
// coefficients times the broadcast Re-row (Im-row) sum, in two chains each
// (even and odd columns: the parity of l - m puts a degree's terms all in
// one, so every lane still adds its terms in ascending j), then scatter to
// their PairIndex slots. An m = 0 block reads its Re row for both and
// scatters zeros as the imaginary parts.
TEXT ·almRIAsm(SB), NOSPLIT, $0-120
	MOVQ blocks_base+0(FP), SI
	MOVQ blocks_len+8(FP), R8
	MOVQ cols_base+24(FP), DX
	MOVQ m_base+48(FP), R9
	MOVQ re_base+72(FP), DI
	MOVQ im_base+96(FP), R10
	TESTQ R8, R8
	JZ   almdone

almblock:
	MOVQ (SI), AX
	LEAQ (R9)(AX*8), R14 // Re row
	MOVQ R14, R15
	MOVQ 8(SI), BX
	TESTQ BX, BX
	JS   almcols
	LEAQ (R9)(BX*8), R15 // Im row

almcols:
	MOVQ 16(SI), CX
	VPXORQ Z16, Z16, Z16
	VPXORQ Z17, Z17, Z17
	VPXORQ Z18, Z18, Z18
	VPXORQ Z19, Z19, Z19
	MOVQ CX, R11
	SHRQ $1, R11
	JZ   almodd

almpair:
	VMOVUPD (DX), Z20
	VMOVUPD 64(DX), Z21
	VFMADD231PD.BCST (R14), Z20, Z16
	VFMADD231PD.BCST (R15), Z20, Z17
	VFMADD231PD.BCST 8(R14), Z21, Z18
	VFMADD231PD.BCST 8(R15), Z21, Z19
	ADDQ $128, DX
	ADDQ $16, R14
	ADDQ $16, R15
	DECQ R11
	JNZ  almpair

almodd:
	TESTQ $1, CX
	JZ   almfold
	VMOVUPD (DX), Z20
	VFMADD231PD.BCST (R14), Z20, Z16
	VFMADD231PD.BCST (R15), Z20, Z17
	ADDQ $64, DX

almfold:
	VADDPD Z18, Z16, Z16
	VADDPD Z19, Z17, Z17
	TESTQ BX, BX
	JNS  almstore
	VPXORQ Z17, Z17, Z17

almstore:
	VMOVDQU64 32(SI), Z30
	KMOVW 24(SI), K1
	KMOVW K1, K2
	VSCATTERQPD Z16, K1, (DI)(Z30*8)
	VSCATTERQPD Z17, K2, (R10)(Z30*8)
	ADDQ $96, SI
	DECQ R8
	JNZ  almblock

almdone:
	RET

// oddSignMask flips the sign of the odd (imaginary) float64 lanes: XORing a
// packed (re, im) vector with it yields the conjugate interleave
// [re, -im, ...] that the zeta update's x leg wants.
DATA oddSignMask<>+0x00(SB)/8, $0x0000000000000000
DATA oddSignMask<>+0x08(SB)/8, $0x8000000000000000
DATA oddSignMask<>+0x10(SB)/8, $0x0000000000000000
DATA oddSignMask<>+0x18(SB)/8, $0x8000000000000000
DATA oddSignMask<>+0x20(SB)/8, $0x0000000000000000
DATA oddSignMask<>+0x28(SB)/8, $0x8000000000000000
DATA oddSignMask<>+0x30(SB)/8, $0x0000000000000000
DATA oddSignMask<>+0x38(SB)/8, $0x8000000000000000
GLOBL oddSignMask<>(SB), RODATA, $64

// The two zeta bodies are register-blocked micro-kernels (Goto & van de
// Geijn, "Anatomy of High-Performance Matrix Multiplication", ACM TOMS
// 2008). The dst tile — rows of W = 8*nb bytes (ZetaBatchIso) or 16*nb
// (ZetaBatch's packed (re, im) view) — is cut into blocks of R rows x S
// 8-float column strips, and a block lives in R*S accumulators (row r's
// strips in Z(r*S) .. Z(r*S+S-1)) while all K primaries fold in: dst is
// loaded and stored once per block, and each primary's legs are loaded once
// per block and shared by its R rows. Each accumulator takes two dependent
// FMAs per primary, so R*S >= 8 chains keep both FMA ports busy wherever
// the tile has that many. The walk is shared:
//
//   - strips: S = 2, or 1 when one is left. Only a row's last strip can be
//     partial; it runs under K1 (masked loads neither fault nor read past
//     the row) and every other strip is whole.
//   - rows: R = 12, or all that are left when at most 12 remain, or half
//     of them (rounded up) when two blocks hold them, so no block is a
//     sliver (nb 13 runs as 7 + 6, not 12 + 1).
//
// Wider blocks would not pay: ZetaBatch derives its interleaves once per
// strip and primary, so a block-primary costs 2*R*S FMAs plus 2*S for them
// whatever S is, and more strips only cost the rows they take from R (at
// nb 10, a 10 x 2 and a 10 x 1 block beat two 5 x 3 blocks by 6 of 72
// port-0/5 uops per primary).
//
// One body per S serves every R: a block's rows load and store in order with
// a compare against R8 = R after each (zetaLoadS, zetaStoreS, shared by both
// bodies), and the primary loop runs them from row R-1 down, entered through
// ZB_ENTER. Per element the operations and their order are those of the
// portable bodies, whatever the block: blocking only interleaves independent
// elements.

// zetaStrips<> starts a strip block at byte offset R13 of a row of R12
// bytes: R9 = S and K1 = the lanes of the block's last strip. Clobbers AX,
// CX.
TEXT zetaStrips<>(SB), NOSPLIT, $0
	MOVQ R12, CX
	SUBQ R13, CX
	SHRQ $3, CX // floats left in the row
	MOVQ $1, R9
	CMPQ CX, $8
	JBE  zsmask
	MOVQ $2, R9
	SUBQ $8, CX // floats from the block's last strip on
	CMPQ CX, $8
	JBE  zsmask
	MOVQ $8, CX

zsmask:
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX
	KMOVW AX, K1
	RET

// zetaRows<> starts a row block at row R14 of nb = R10 rows, in the strip
// block at byte offset R13: R8 = R and DX = the block's first row in dst
// (DI, row stride R12).
TEXT zetaRows<>(SB), NOSPLIT, $0
	MOVQ R10, R8
	SUBQ R14, R8 // rows left
	CMPQ R8, $12
	JBE  zrfirst
	CMPQ R8, $24
	JAE  zrmax
	INCQ R8
	SHRQ $1, R8 // two blocks hold them: half, rounded up
	JMP  zrfirst

zrmax:
	MOVQ $12, R8

zrfirst:
	MOVQ  R14, DX
	IMULQ R12, DX
	ADDQ  DI, DX
	ADDQ  R13, DX
	RET

// ZB_LOADn / ZB_STOREn move one block row between dst at AX (the last
// strip under K1) and its n accumulators, then stop if it was row R8
// (jumping to done) or step AX a row on (R12 bytes).
#define ZB_LOAD1(z0, n, done) \
	VMOVUPD.Z (AX), K1, z0 \
	CMPQ      R8, $n \
	JEQ       done \
	ADDQ      R12, AX

#define ZB_LOAD2(z0, z1, n, done) \
	VMOVUPD   (AX), z0 \
	VMOVUPD.Z 64(AX), K1, z1 \
	CMPQ      R8, $n \
	JEQ       done \
	ADDQ      R12, AX

#define ZB_STORE1(z0, n, done) \
	VMOVUPD z0, K1, (AX) \
	CMPQ    R8, $n \
	JEQ     done \
	ADDQ    R12, AX

#define ZB_STORE2(z0, z1, n, done) \
	VMOVUPD z0, (AX) \
	VMOVUPD z1, K1, 64(AX) \
	CMPQ    R8, $n \
	JEQ     done \
	ADDQ    R12, AX

// zetaLoad1<> and zetaLoad2<> load a block's R8 rows from dst at DX (its
// first row, as zetaRows<> leaves it) into Z0 .. Z(R8*S-1) in row order,
// S = 1 or 2; zetaStore1<> and zetaStore2<> store them back. Clobber AX.
TEXT zetaLoad1<>(SB), NOSPLIT, $0
	MOVQ DX, AX
	ZB_LOAD1(Z0, 1, zl1done)
	ZB_LOAD1(Z1, 2, zl1done)
	ZB_LOAD1(Z2, 3, zl1done)
	ZB_LOAD1(Z3, 4, zl1done)
	ZB_LOAD1(Z4, 5, zl1done)
	ZB_LOAD1(Z5, 6, zl1done)
	ZB_LOAD1(Z6, 7, zl1done)
	ZB_LOAD1(Z7, 8, zl1done)
	ZB_LOAD1(Z8, 9, zl1done)
	ZB_LOAD1(Z9, 10, zl1done)
	ZB_LOAD1(Z10, 11, zl1done)
	ZB_LOAD1(Z11, 12, zl1done)

zl1done:
	RET

TEXT zetaLoad2<>(SB), NOSPLIT, $0
	MOVQ DX, AX
	ZB_LOAD2(Z0, Z1, 1, zl2done)
	ZB_LOAD2(Z2, Z3, 2, zl2done)
	ZB_LOAD2(Z4, Z5, 3, zl2done)
	ZB_LOAD2(Z6, Z7, 4, zl2done)
	ZB_LOAD2(Z8, Z9, 5, zl2done)
	ZB_LOAD2(Z10, Z11, 6, zl2done)
	ZB_LOAD2(Z12, Z13, 7, zl2done)
	ZB_LOAD2(Z14, Z15, 8, zl2done)
	ZB_LOAD2(Z16, Z17, 9, zl2done)
	ZB_LOAD2(Z18, Z19, 10, zl2done)
	ZB_LOAD2(Z20, Z21, 11, zl2done)
	ZB_LOAD2(Z22, Z23, 12, zl2done)

zl2done:
	RET

TEXT zetaStore1<>(SB), NOSPLIT, $0
	MOVQ DX, AX
	ZB_STORE1(Z0, 1, zs1done)
	ZB_STORE1(Z1, 2, zs1done)
	ZB_STORE1(Z2, 3, zs1done)
	ZB_STORE1(Z3, 4, zs1done)
	ZB_STORE1(Z4, 5, zs1done)
	ZB_STORE1(Z5, 6, zs1done)
	ZB_STORE1(Z6, 7, zs1done)
	ZB_STORE1(Z7, 8, zs1done)
	ZB_STORE1(Z8, 9, zs1done)
	ZB_STORE1(Z9, 10, zs1done)
	ZB_STORE1(Z10, 11, zs1done)
	ZB_STORE1(Z11, 12, zs1done)

zs1done:
	RET

TEXT zetaStore2<>(SB), NOSPLIT, $0
	MOVQ DX, AX
	ZB_STORE2(Z0, Z1, 1, zs2done)
	ZB_STORE2(Z2, Z3, 2, zs2done)
	ZB_STORE2(Z4, Z5, 3, zs2done)
	ZB_STORE2(Z6, Z7, 4, zs2done)
	ZB_STORE2(Z8, Z9, 5, zs2done)
	ZB_STORE2(Z10, Z11, 6, zs2done)
	ZB_STORE2(Z12, Z13, 7, zs2done)
	ZB_STORE2(Z14, Z15, 8, zs2done)
	ZB_STORE2(Z16, Z17, 9, zs2done)
	ZB_STORE2(Z18, Z19, 10, zs2done)
	ZB_STORE2(Z20, Z21, 11, zs2done)
	ZB_STORE2(Z22, Z23, 12, zs2done)

zs2done:
	RET

// ZB_ENTER jumps into a primary's row sequence, which runs from the block's
// last row down to row 0 (labels r0 .. r11), at row R8 - 1: a three-level
// ladder of compares per primary instead of one after every row, which
// would take issue slots from the FMA ports. mid and hi are its own labels.
#define ZB_ENTER(r0, r1, r2, r3, r4, r5, r6, r7, r8, r9, r10, r11, mid, hi) \
	CMPQ R8, $8 \
	JA   hi \
	CMPQ R8, $4 \
	JA   mid \
	CMPQ R8, $2 \
	JB   r0 \
	JEQ  r1 \
	CMPQ R8, $3 \
	JEQ  r2 \
	JMP  r3 \
mid: \
	CMPQ R8, $6 \
	JB   r4 \
	JEQ  r5 \
	CMPQ R8, $7 \
	JEQ  r6 \
	JMP  r7 \
hi: \
	CMPQ R8, $10 \
	JB   r8 \
	JEQ  r9 \
	CMPQ R8, $11 \
	JEQ  r10 \
	JMP  r11

// ZC_PREPn loads primary a's a2 strips at AX and derives, once per strip,
// the conjugate interleave u (Z24, Z25) and the pair-swapped v (Z26, Z27).
#define ZC_PREP1 \
	VMOVUPD.Z (AX), K1, Z26 \
	VPXORQ    Z31, Z26, Z24 \
	VPERMILPD $0x55, Z26, Z26

#define ZC_PREP2 \
	VMOVUPD   (AX), Z26 \
	VMOVUPD.Z 64(AX), K1, Z27 \
	VPXORQ    Z31, Z26, Z24 \
	VPXORQ    Z31, Z27, Z25 \
	VPERMILPD $0x55, Z26, Z26 \
	VPERMILPD $0x55, Z27, Z27

// ZC_ROWn folds one block row: its (x, y) at off(AX)(CX*1) — CX is the xy
// rows' distance from the a2 strip, so AX alone walks the primaries — then
// per strip the x leg's FMA and the y leg's.
#define ZC_ROW1(off, z0) \
	VBROADCASTSD off(AX)(CX*1), Z28 \
	VBROADCASTSD off+8(AX)(CX*1), Z29 \
	VFMADD231PD  Z24, Z28, z0 \
	VFMADD231PD  Z26, Z29, z0

#define ZC_ROW2(off, z0, z1) \
	VBROADCASTSD off(AX)(CX*1), Z28 \
	VBROADCASTSD off+8(AX)(CX*1), Z29 \
	VFMADD231PD  Z24, Z28, z0 \
	VFMADD231PD  Z25, Z28, z1 \
	VFMADD231PD  Z26, Z29, z0 \
	VFMADD231PD  Z27, Z29, z1

// func zetaBatchAsm(dst []complex128, a2, xy []float64, nb, k int)
// K fused dense per-primary zeta updates of one channel's nb x nb block over
// the packed float64 view of dst (rows of 2*nb floats), blocked as above
// (nb 10: a 10 x 2 and a 10 x 1 block; nb 6: one 6 x 2). Per primary and
// strip the a2 strip yields u = a2 XOR oddSignMask (conjugate) and
// v = pair-swapped a2 once, shared by the block's rows; each row broadcasts
// its weighted (x, y) and folds x*u, then y*v, into every strip.
TEXT ·zetaBatchAsm(SB), NOSPLIT, $0-88
	MOVQ    dst_base+0(FP), DI
	MOVQ    a2_base+24(FP), SI
	MOVQ    xy_base+48(FP), BX
	MOVQ    nb+72(FP), R10
	MOVQ    k+80(FP), R11
	MOVQ    R10, R12
	SHLQ    $4, R12 // row and per-primary stride: 2*nb floats = 16*nb bytes
	VMOVUPD oddSignMask<>(SB), Z31
	XORQ    R13, R13

zcstrips:
	CALL zetaStrips<>(SB)
	XORQ R14, R14

zcrows:
	CALL zetaRows<>(SB)
	MOVQ R14, CX
	SHLQ $4, CX
	ADDQ BX, CX
	SUBQ SI, CX
	SUBQ R13, CX // (x, y) of the block's first row, less its a2 strip
	MOVQ R11, R15
	IMULQ R12, R15
	ADDQ SI, R15
	ADDQ R13, R15 // a2 strip cursor bound: K primaries on
	CMPQ R9, $2
	JB   zc1

	CALL zetaLoad2<>(SB)
	LEAQ (SI)(R13*1), AX

zc2loop:
	ZC_PREP2
	ZB_ENTER(zc2r0, zc2r1, zc2r2, zc2r3, zc2r4, zc2r5, zc2r6, zc2r7, zc2r8, zc2r9, zc2r10, zc2r11, zc2mid, zc2hi)
zc2r11:
	ZC_ROW2(176, Z22, Z23)
zc2r10:
	ZC_ROW2(160, Z20, Z21)
zc2r9:
	ZC_ROW2(144, Z18, Z19)
zc2r8:
	ZC_ROW2(128, Z16, Z17)
zc2r7:
	ZC_ROW2(112, Z14, Z15)
zc2r6:
	ZC_ROW2(96, Z12, Z13)
zc2r5:
	ZC_ROW2(80, Z10, Z11)
zc2r4:
	ZC_ROW2(64, Z8, Z9)
zc2r3:
	ZC_ROW2(48, Z6, Z7)
zc2r2:
	ZC_ROW2(32, Z4, Z5)
zc2r1:
	ZC_ROW2(16, Z2, Z3)
zc2r0:
	ZC_ROW2(0, Z0, Z1)
zc2next:
	ADDQ R12, AX
	CMPQ AX, R15
	JB   zc2loop
	CALL zetaStore2<>(SB)
	JMP  zcnext

zc1:
	CALL zetaLoad1<>(SB)
	LEAQ (SI)(R13*1), AX

zc1loop:
	ZC_PREP1
	ZB_ENTER(zc1r0, zc1r1, zc1r2, zc1r3, zc1r4, zc1r5, zc1r6, zc1r7, zc1r8, zc1r9, zc1r10, zc1r11, zc1mid, zc1hi)
zc1r11:
	ZC_ROW1(176, Z11)
zc1r10:
	ZC_ROW1(160, Z10)
zc1r9:
	ZC_ROW1(144, Z9)
zc1r8:
	ZC_ROW1(128, Z8)
zc1r7:
	ZC_ROW1(112, Z7)
zc1r6:
	ZC_ROW1(96, Z6)
zc1r5:
	ZC_ROW1(80, Z5)
zc1r4:
	ZC_ROW1(64, Z4)
zc1r3:
	ZC_ROW1(48, Z3)
zc1r2:
	ZC_ROW1(32, Z2)
zc1r1:
	ZC_ROW1(16, Z1)
zc1r0:
	ZC_ROW1(0, Z0)
zc1next:
	ADDQ R12, AX
	CMPQ AX, R15
	JB   zc1loop
	CALL zetaStore1<>(SB)

zcnext:
	ADDQ R8, R14
	CMPQ R14, R10
	JB   zcrows
	SHLQ $6, R9
	ADDQ R9, R13
	CMPQ R13, R12
	JB   zcstrips
	VZEROUPPER
	RET

// ZI_PREPn loads primary a's re strips (Z24, Z25) at AX and its im strips
// (Z26, Z27) R12 bytes on, and broadcasts its weight w[a] (BX, R15) to Z30.
#define ZI_PREP1 \
	VMOVUPD.Z    (AX), K1, Z24 \
	VMOVUPD.Z    (AX)(R12*1), K1, Z26 \
	VBROADCASTSD (BX)(R15*8), Z30

#define ZI_PREP2 \
	VMOVUPD      (AX), Z24 \
	VMOVUPD.Z    64(AX), K1, Z25 \
	VMOVUPD      (AX)(R12*1), Z26 \
	VMOVUPD.Z    64(AX)(R12*1), K1, Z27 \
	VBROADCASTSD (BX)(R15*8), Z30

// ZI_ROWn folds one block row: x = w*re[row] and y = w*im[row], each
// rounded once (the broadcast folded into the multiply), then per strip
// the FMA of x*re and the FMA of y*im.
#define ZI_ROW1(off, z0) \
	VMULPD.BCST off(CX), Z30, Z28 \
	VMULPD.BCST off(CX)(R12*1), Z30, Z29 \
	VFMADD231PD Z24, Z28, z0 \
	VFMADD231PD Z26, Z29, z0

#define ZI_ROW2(off, z0, z1) \
	VMULPD.BCST off(CX), Z30, Z28 \
	VMULPD.BCST off(CX)(R12*1), Z30, Z29 \
	VFMADD231PD Z24, Z28, z0 \
	VFMADD231PD Z25, Z28, z1 \
	VFMADD231PD Z26, Z29, z0 \
	VFMADD231PD Z27, Z29, z1

// func zetaBatchIsoAsm(dst, a2, w []float64, nb, k int)
// The real-valued IsotropicOnly variant of zetaBatchAsm: dst is a real
// nb x nb tile and a2 carries split re/im halves per primary (re row then
// im row, per-primary stride 2*nb floats), so both legs load as plain
// contiguous strips — no conjugate sign flip, no pair swap. Per (primary,
// row) the weighted scalars x = w[a]*re[row] and y = w[a]*im[row] are
// formed once per strip block and folded into each of its strips with two
// FMAs. Blocked as above (nb 10: one 10 x 2 block).
TEXT ·zetaBatchIsoAsm(SB), NOSPLIT, $0-88
	MOVQ dst_base+0(FP), DI
	MOVQ a2_base+24(FP), SI
	MOVQ w_base+48(FP), BX
	MOVQ nb+72(FP), R10
	MOVQ k+80(FP), R11
	MOVQ R10, R12
	SHLQ $3, R12 // dst row stride and re->im half offset: nb floats = 8*nb bytes
	XORQ R13, R13

zistrips:
	CALL zetaStrips<>(SB)
	XORQ R14, R14

zirows:
	CALL zetaRows<>(SB)
	LEAQ (SI)(R14*8), CX // re[row R14] of primary 0
	XORQ R15, R15
	CMPQ R9, $2
	JB   zi1

	CALL zetaLoad2<>(SB)
	LEAQ (SI)(R13*1), AX

zi2loop:
	ZI_PREP2
	ZB_ENTER(zi2r0, zi2r1, zi2r2, zi2r3, zi2r4, zi2r5, zi2r6, zi2r7, zi2r8, zi2r9, zi2r10, zi2r11, zi2mid, zi2hi)
zi2r11:
	ZI_ROW2(88, Z22, Z23)
zi2r10:
	ZI_ROW2(80, Z20, Z21)
zi2r9:
	ZI_ROW2(72, Z18, Z19)
zi2r8:
	ZI_ROW2(64, Z16, Z17)
zi2r7:
	ZI_ROW2(56, Z14, Z15)
zi2r6:
	ZI_ROW2(48, Z12, Z13)
zi2r5:
	ZI_ROW2(40, Z10, Z11)
zi2r4:
	ZI_ROW2(32, Z8, Z9)
zi2r3:
	ZI_ROW2(24, Z6, Z7)
zi2r2:
	ZI_ROW2(16, Z4, Z5)
zi2r1:
	ZI_ROW2(8, Z2, Z3)
zi2r0:
	ZI_ROW2(0, Z0, Z1)
zi2next:
	LEAQ (AX)(R12*2), AX
	LEAQ (CX)(R12*2), CX
	INCQ R15
	CMPQ R15, R11
	JB   zi2loop
	CALL zetaStore2<>(SB)
	JMP  zinext

zi1:
	CALL zetaLoad1<>(SB)
	LEAQ (SI)(R13*1), AX

zi1loop:
	ZI_PREP1
	ZB_ENTER(zi1r0, zi1r1, zi1r2, zi1r3, zi1r4, zi1r5, zi1r6, zi1r7, zi1r8, zi1r9, zi1r10, zi1r11, zi1mid, zi1hi)
zi1r11:
	ZI_ROW1(88, Z11)
zi1r10:
	ZI_ROW1(80, Z10)
zi1r9:
	ZI_ROW1(72, Z9)
zi1r8:
	ZI_ROW1(64, Z8)
zi1r7:
	ZI_ROW1(56, Z7)
zi1r6:
	ZI_ROW1(48, Z6)
zi1r5:
	ZI_ROW1(40, Z5)
zi1r4:
	ZI_ROW1(32, Z4)
zi1r3:
	ZI_ROW1(24, Z3)
zi1r2:
	ZI_ROW1(16, Z2)
zi1r1:
	ZI_ROW1(8, Z1)
zi1r0:
	ZI_ROW1(0, Z0)
zi1next:
	LEAQ (AX)(R12*2), AX
	LEAQ (CX)(R12*2), CX
	INCQ R15
	CMPQ R15, R11
	JB   zi1loop
	CALL zetaStore1<>(SB)

zinext:
	ADDQ R8, R14
	CMPQ R14, R10
	JB   zirows
	SHLQ $6, R9
	ADDQ R9, R13
	CMPQ R13, R12
	JB   zistrips
	VZEROUPPER
	RET

// RD_PAIR(a, b, t) leaves in a the in-pair sums of lane groups a and b,
// interleaved: [a0+a1, b0+b1, a2+a3, b2+b3, ...] (each 128-bit lane k holds
// the pair (2k, 2k+1) of a, then of b). Clobbers t.
#define RD_PAIR(a, b, t) \
	VUNPCKHPD b, a, t \
	VUNPCKLPD b, a, a \
	VADDPD    t, a, a

// RD_HALVES(p, q, t) adds p's 128-bit lanes 0 and 2 to its lanes 1 and 3,
// and q's likewise: p = [p.l0+p.l1, p.l2+p.l3, q.l0+q.l1, q.l2+q.l3].
// Clobbers t.
#define RD_HALVES(p, q, t) \
	VSHUFF64X2 $0xdd, q, p, t \
	VSHUFF64X2 $0x88, q, p, p \
	VADDPD     t, p, p

// func reduceAsm(acc, out []float64, zero bool)
// Lane-striped accumulator fold with the generic body's addition pairing,
// so bitwise identical: per group (a0+a1)+(a2+a3), then
// +((a4+a5)+(a6+a7)). Eight groups at a time as an 8 x 8 transpose-add:
// unpack + add forms s01 .. s67 of two groups per register, a 128-bit
// shuffle + add s0123 / s4567 of four, and a last shuffle + add the eight
// sums in group order, one store. The 1-7 groups left over run two, then
// one, at a time: an in-pair swap + add forms s01 .. s67, a per-128-lane
// compact + swap + add s0123 / s4567, and the 256-bit halves meet in the
// final scalar add. With zero set, each group is cleared behind its load (a
// store of Z31 under K1, which is empty otherwise).
TEXT ·reduceAsm(SB), NOSPLIT, $0-49
	MOVQ    acc_base+0(FP), SI
	MOVQ    out_base+24(FP), DI
	MOVQ    out_len+32(FP), CX
	MOVBLZX zero+48(FP), AX
	NEGL    AX
	KMOVW   AX, K1
	VPXORQ  Z31, Z31, Z31
	MOVQ    CX, DX
	SHRQ    $3, DX
	JZ      rdpairs

rdeight:
	VMOVUPD (SI), Z16
	VMOVUPD 64(SI), Z17
	VMOVUPD 128(SI), Z18
	VMOVUPD 192(SI), Z19
	VMOVUPD 256(SI), Z20
	VMOVUPD 320(SI), Z21
	VMOVUPD 384(SI), Z22
	VMOVUPD 448(SI), Z23
	VMOVUPD Z31, K1, (SI)
	VMOVUPD Z31, K1, 64(SI)
	VMOVUPD Z31, K1, 128(SI)
	VMOVUPD Z31, K1, 192(SI)
	VMOVUPD Z31, K1, 256(SI)
	VMOVUPD Z31, K1, 320(SI)
	VMOVUPD Z31, K1, 384(SI)
	VMOVUPD Z31, K1, 448(SI)
	RD_PAIR(Z16, Z17, Z24)
	RD_PAIR(Z18, Z19, Z25)
	RD_PAIR(Z20, Z21, Z26)
	RD_PAIR(Z22, Z23, Z27)
	RD_HALVES(Z16, Z18, Z24) // groups 0-3: [s0123, s4567] of 0,1 | of 2,3
	RD_HALVES(Z20, Z22, Z25) // groups 4-7
	RD_HALVES(Z16, Z20, Z24) // s0123 + s4567 of groups 0..7, in order
	VMOVUPD Z16, (DI)
	ADDQ    $512, SI
	ADDQ    $64, DI
	DECQ    DX
	JNZ     rdeight

rdpairs:
	ANDQ $7, CX
	MOVQ CX, DX
	SHRQ $1, DX
	JZ   rdsingle

rdpair:
	VMOVUPD       (SI), Z16
	VMOVUPD       64(SI), Z20
	VMOVUPD       Z31, K1, (SI)
	VMOVUPD       Z31, K1, 64(SI)
	VPERMILPD     $0x55, Z16, Z17
	VPERMILPD     $0x55, Z20, Z21
	VADDPD        Z17, Z16, Z16 // [s01 s01 s23 s23 | s45 s45 s67 s67]
	VADDPD        Z21, Z20, Z20
	VPERMPD       $0x08, Z16, Z16 // per 256 half: [s01 s23 . .]
	VPERMPD       $0x08, Z20, Z20
	VPERMILPD     $0x55, Z16, Z17
	VPERMILPD     $0x55, Z20, Z21
	VADDPD        Z17, Z16, Z16 // lane0 of each half: s0123 / s4567
	VADDPD        Z21, Z20, Z20
	VEXTRACTF64X4 $1, Z16, Y17
	VEXTRACTF64X4 $1, Z20, Y21
	VADDSD        X17, X16, X16
	VADDSD        X21, X20, X20
	VMOVSD        X16, (DI)
	VMOVSD        X20, 8(DI)
	ADDQ          $128, SI
	ADDQ          $16, DI
	DECQ          DX
	JNZ           rdpair

rdsingle:
	ANDQ          $1, CX
	JZ            rddone
	VMOVUPD       (SI), Z16
	VMOVUPD       Z31, K1, (SI)
	VPERMILPD     $0x55, Z16, Z17
	VADDPD        Z17, Z16, Z16
	VPERMPD       $0x08, Z16, Z16
	VPERMILPD     $0x55, Z16, Z17
	VADDPD        Z17, Z16, Z16
	VEXTRACTF64X4 $1, Z16, Y17
	VADDSD        X17, X16, X16
	VMOVSD        X16, (DI)

rddone:
	RET

DATA pairHalf<>+0(SB)/8, $0.5
GLOBL pairHalf<>(SB), RODATA, $8
DATA pairOne<>+0(SB)/8, $1.0
GLOBL pairOne<>(SB), RODATA, $8

// PAIR_NORM leaves r2 = (x*x + y*y) + z*z of the separations in Z3-Z5 in Z7
// (clobbers Z8).
#define PAIR_NORM \
	VMULPD Z3, Z3, Z7 \
	VMULPD Z4, Z4, Z8 \
	VADDPD Z8, Z7, Z7 \
	VMULPD Z5, Z5, Z8 \
	VADDPD Z8, Z7, Z7

// func pairColumnsAsm(sh *PairShell, frame *geom.Rotation, pts []geom.Vec3, ws []float64, pi int32, ids []int32, out *PairCols) int
// The AVX-512 body of PairColumns: eight neighbor ids per step (the last
// under a tail mask) — gather, minimal image, norm, bin, keep mask, unit
// separation, frame, compress. Subtract, multiply, add, square root and
// divide only — no FMA, the adds in the portable body's (x*x + y*y) + z*z
// and (f0*x + f1*y) + f2*z order, the frame's entries broadcast from memory
// (R14, nil without a frame) — so every stored value is the portable
// body's. The compressed registers are stored whole at survivor index AX
// (the slack PairCols promises). Like the zeta bodies it uses Z0-Z15 as
// well (fourteen broadcast constants leave too few high registers), hence
// the VZEROUPPER.
TEXT ·pairColumnsAsm(SB), NOSPLIT, $0-112
	MOVQ sh+0(FP), DI
	MOVQ pts_base+16(FP), BX
	MOVQ ids_base+72(FP), SI
	MOVQ ids_len+80(FP), R15
	MOVQ ws_base+40(FP), DX
	MOVQ out+96(FP), R14
	MOVQ 0(R14), R8    // out.X
	MOVQ 24(R14), R9   // out.Y
	MOVQ 48(R14), R10  // out.Z
	MOVQ 72(R14), R11  // out.W
	MOVQ 96(R14), R12  // out.Bin
	MOVQ 120(R14), R13 // out.ID, nil when the ids are not wanted
	MOVQ frame+8(FP), R14

	// The primary: pts[pi], 24 bytes a point.
	MOVLQSX      pi+64(FP), AX
	VPBROADCASTD AX, Z26
	LEAQ         (AX)(AX*2), AX
	VBROADCASTSD (BX)(AX*8), Z16
	VBROADCASTSD 8(BX)(AX*8), Z17
	VBROADCASTSD 16(BX)(AX*8), Z18

	VBROADCASTSD 0(DI), Z19 // L
	VMULPD.BCST  pairHalf<>(SB), Z19, Z20 // h = L/2
	VPXORQ       Z28, Z28, Z28
	VSUBPD       Z20, Z28, Z21 // -h
	VMULPD       Z20, Z20, Z29 // h*h
	VBROADCASTSD 8(DI), Z22 // RMin
	VBROADCASTSD 16(DI), Z23 // RMax
	VBROADCASTSD 24(DI), Z24 // InvW
	MOVL         32(DI), AX
	DECL         AX
	VPBROADCASTD AX, Z25 // NBins-1
	VBROADCASTSD pairOne<>(SB), Z27
	MOVL         $0xff, AX
	KMOVW        AX, K4
	VCMPPD       $0x1e, Z28, Z19, K4, K5 // K5: all lanes when L > 0, none for open boundaries
	XORL         AX, AX // survivors so far

pcloop:
	CMPQ  R15, $0
	JLE   pcdone
	KMOVW K4, K1
	CMPQ  R15, $8
	JGE   pcstep
	MOVQ  R15, CX
	MOVL  $1, DI
	SHLL  CX, DI
	DECL  DI
	KMOVW DI, K1

pcstep:
	VMOVDQU32.Z (SI), K1, Z0 // ids; the lanes past K1 read as id 0 and are never kept
	VPMOVSXDQ   Y0, Z1
	VPSLLQ      $1, Z1, Z2
	VPADDQ      Z1, Z2, Z2 // 3j: the point's first float64
	KMOVW       K1, K2
	VPXORQ      Z3, Z3, Z3
	VGATHERQPD  (BX)(Z2*8), K2, Z3
	KMOVW       K1, K2
	VPXORQ      Z4, Z4, Z4
	VGATHERQPD  8(BX)(Z2*8), K2, Z4
	KMOVW       K1, K2
	VPXORQ      Z5, Z5, Z5
	VGATHERQPD  16(BX)(Z2*8), K2, Z5
	KMOVW       K1, K2
	VPXORQ      Z6, Z6, Z6
	VGATHERQPD  (DX)(Z1*8), K2, Z6
	VSUBPD      Z16, Z3, Z3
	VSUBPD      Z17, Z4, Z4
	VSUBPD      Z18, Z5, Z5

	// Minimal image. The scalar loops are "-L while d > h, then +L while
	// d < -h"; one masked step of each is all a point inside the box ever
	// takes, and run unconditionally it leaves exactly the loops' value
	// whenever that value lies within [-h, h] (a lane at rest is never
	// touched). A component still outside — a stray image several box sides
	// out — shows as r2 >= h*h; pcstray then replays the loops in full from
	// the saved differences.
	KORTESTW K5, K5
	JZ       pcopen
	VMOVAPD  Z3, Z13
	VMOVAPD  Z4, Z14
	VMOVAPD  Z5, Z15
	VCMPPD   $0x1e, Z20, Z3, K1, K2
	VSUBPD   Z19, Z3, K2, Z3
	VCMPPD   $0x1e, Z20, Z4, K1, K3
	VSUBPD   Z19, Z4, K3, Z4
	VCMPPD   $0x1e, Z20, Z5, K1, K2
	VSUBPD   Z19, Z5, K2, Z5
	VCMPPD   $0x11, Z21, Z3, K1, K3
	VADDPD   Z19, Z3, K3, Z3
	VCMPPD   $0x11, Z21, Z4, K1, K2
	VADDPD   Z19, Z4, K2, Z4
	VCMPPD   $0x11, Z21, Z5, K1, K3
	VADDPD   Z19, Z5, K3, Z5
	PAIR_NORM
	VCMPPD   $0x1d, Z29, Z7, K1, K2
	KORTESTW K2, K2
	JNZ      pcstray
	JMP      pcroot

pcopen:
	PAIR_NORM

pcroot:
	VSQRTPD    Z7, Z8 // r
	VDIVPD     Z8, Z27, Z9 // 1/r
	VSUBPD     Z22, Z8, Z10
	VMULPD     Z24, Z10, Z10
	VCVTTPD2DQ Z10, Y10 // trunc((r - RMin) * InvW)
	VPMINSD    Z25, Z10, Z10

	// Keep j != pi, r2 != 0, RMin <= r < RMax (ordered: an r that is not a
	// number is dropped).
	VPCMPD $4, Z26, Z0, K1, K3
	VCMPPD $0x0c, Z28, Z7, K3, K3
	VCMPPD $0x1d, Z22, Z8, K3, K3
	VCMPPD $0x11, Z23, Z8, K3, K3

	VMULPD        Z9, Z3, Z3
	VMULPD        Z9, Z4, Z4
	VMULPD        Z9, Z5, Z5
	TESTQ         R14, R14
	JZ            pcstore

	// The frame: row i of R14 (24 bytes a row) against (x, y, z) in Z3-Z5.
	VMULPD.BCST (R14), Z3, Z7
	VMULPD.BCST 8(R14), Z4, Z8
	VADDPD      Z8, Z7, Z7
	VMULPD.BCST 16(R14), Z5, Z8
	VADDPD      Z8, Z7, Z7
	VMULPD.BCST 24(R14), Z3, Z11
	VMULPD.BCST 32(R14), Z4, Z8
	VADDPD      Z8, Z11, Z11
	VMULPD.BCST 40(R14), Z5, Z8
	VADDPD      Z8, Z11, Z11
	VMULPD.BCST 48(R14), Z3, Z12
	VMULPD.BCST 56(R14), Z4, Z8
	VADDPD      Z8, Z12, Z12
	VMULPD.BCST 64(R14), Z5, Z8
	VADDPD      Z8, Z12, Z5
	VMOVAPD     Z7, Z3
	VMOVAPD     Z11, Z4

pcstore:
	VCOMPRESSPD.Z Z3, K3, Z11
	VMOVUPD       Z11, (R8)(AX*8)
	VCOMPRESSPD.Z Z4, K3, Z11
	VMOVUPD       Z11, (R9)(AX*8)
	VCOMPRESSPD.Z Z5, K3, Z11
	VMOVUPD       Z11, (R10)(AX*8)
	VCOMPRESSPD.Z Z6, K3, Z11
	VMOVUPD       Z11, (R11)(AX*8)
	VPCOMPRESSD.Z Z10, K3, Z12
	VMOVDQU       Y12, (R12)(AX*4)
	TESTQ         R13, R13
	JZ            pccount
	VPCOMPRESSD.Z Z0, K3, Z12
	VMOVDQU       Y12, (R13)(AX*4)

pccount:
	KMOVW   K3, DI
	POPCNTL DI, DI
	ADDQ    DI, AX
	ADDQ    $32, SI
	SUBQ    $8, R15
	JMP     pcloop

pcdone:
	VZEROUPPER
	MOVQ AX, ret+104(FP)
	RET

pcstray:
	VMOVAPD Z13, Z3
	VMOVAPD Z14, Z4
	VMOVAPD Z15, Z5

pcxhi:
	VCMPPD   $0x1e, Z20, Z3, K1, K3
	KORTESTW K3, K3
	JZ       pcxlo
	VSUBPD   Z19, Z3, K3, Z3
	JMP      pcxhi

pcxlo:
	VCMPPD   $0x11, Z21, Z3, K1, K3
	KORTESTW K3, K3
	JZ       pcyhi
	VADDPD   Z19, Z3, K3, Z3
	JMP      pcxlo

pcyhi:
	VCMPPD   $0x1e, Z20, Z4, K1, K3
	KORTESTW K3, K3
	JZ       pcylo
	VSUBPD   Z19, Z4, K3, Z4
	JMP      pcyhi

pcylo:
	VCMPPD   $0x11, Z21, Z4, K1, K3
	KORTESTW K3, K3
	JZ       pczhi
	VADDPD   Z19, Z4, K3, Z4
	JMP      pcylo

pczhi:
	VCMPPD   $0x1e, Z20, Z5, K1, K3
	KORTESTW K3, K3
	JZ       pczlo
	VSUBPD   Z19, Z5, K3, Z5
	JMP      pczhi

pczlo:
	VCMPPD   $0x11, Z21, Z5, K1, K3
	KORTESTW K3, K3
	JZ       pcopen
	VADDPD   Z19, Z5, K3, Z5
	JMP      pczlo

// func reduceBinsAsm(acc, out []float64, cnt []int32, ns int)
// ReduceBins: reduceAsm's 8 x 8 transpose-add with the eight groups taken
// from eight bins (bin stride R8 = 64*ns bytes) at the same sum, so each
// fold lands as a vector over bins: out row i, columns 8g .. 8g+7. A group
// of r < 8 bins (the last) loads only its r bins, the other registers
// holding +0; its bins without pairs (K2 clear, from their counts) and the
// lanes past r come out +0 whatever the accumulators hold.
TEXT ·reduceBinsAsm(SB), NOSPLIT, $0-80
	MOVQ  acc_base+0(FP), SI
	MOVQ  out_base+24(FP), DI
	MOVQ  cnt_base+48(FP), R11
	MOVQ  cnt_len+56(FP), BX
	MOVQ  ns+72(FP), R12
	TESTQ R12, R12
	JZ    rbdone
	MOVQ  R12, R8
	SHLQ  $6, R8              // bin stride in bytes
	LEAQ  (R8)(R8*2), R9      // 3 bin strides
	LEAQ  7(BX), R10
	SHRQ  $3, R10
	SHLQ  $6, R10             // out row length in bytes: BinStride(nb)*8

rbgroup:
	MOVQ        BX, DX
	MOVL        $8, AX
	CMPQ        DX, AX
	CMOVQGT     AX, DX         // DX = the group's bins
	MOVQ        DX, CX
	MOVL        $1, AX
	SHLL        CX, AX
	DECL        AX
	KMOVW       AX, K3
	VMOVDQU32.Z (R11), K3, Z24
	VPTESTMD    Z24, Z24, K2   // the group's bins with pairs
	MOVQ        SI, R13        // bins 0-3 of the group
	LEAQ        (SI)(R8*4), R14 // bins 4-7
	MOVQ        DI, R15
	MOVQ        R12, CX

rbsum:
	VMOVUPD (R13), Z16
	VPXORQ  Z17, Z17, Z17
	VPXORQ  Z18, Z18, Z18
	VPXORQ  Z19, Z19, Z19
	VPXORQ  Z20, Z20, Z20
	VPXORQ  Z21, Z21, Z21
	VPXORQ  Z22, Z22, Z22
	VPXORQ  Z23, Z23, Z23
	CMPQ    DX, $2
	JB      rbtree
	VMOVUPD (R13)(R8*1), Z17
	CMPQ    DX, $3
	JB      rbtree
	VMOVUPD (R13)(R8*2), Z18
	CMPQ    DX, $4
	JB      rbtree
	VMOVUPD (R13)(R9*1), Z19
	CMPQ    DX, $5
	JB      rbtree
	VMOVUPD (R14), Z20
	CMPQ    DX, $6
	JB      rbtree
	VMOVUPD (R14)(R8*1), Z21
	CMPQ    DX, $7
	JB      rbtree
	VMOVUPD (R14)(R8*2), Z22
	CMPQ    DX, $8
	JB      rbtree
	VMOVUPD (R14)(R9*1), Z23

rbtree:
	RD_PAIR(Z16, Z17, Z24)
	RD_PAIR(Z18, Z19, Z25)
	RD_PAIR(Z20, Z21, Z26)
	RD_PAIR(Z22, Z23, Z27)
	RD_HALVES(Z16, Z18, Z24)
	RD_HALVES(Z20, Z22, Z25)
	RD_HALVES(Z16, Z20, Z24)
	VMOVUPD.Z Z16, K2, Z16
	VMOVUPD   Z16, (R15)
	ADDQ      $64, R13
	ADDQ      $64, R14
	ADDQ      R10, R15
	DECQ      CX
	JNZ       rbsum
	LEAQ      (SI)(R8*8), SI
	ADDQ      $64, DI
	ADDQ      $32, R11
	SUBQ      DX, BX
	JNZ       rbgroup

rbdone:
	RET

// binLo and binHi interleave a Re and an Im vector over eight bins into
// (re, im) pairs: bins 0-3, then bins 4-7.
DATA binLo<>+0x00(SB)/8, $0
DATA binLo<>+0x08(SB)/8, $8
DATA binLo<>+0x10(SB)/8, $1
DATA binLo<>+0x18(SB)/8, $9
DATA binLo<>+0x20(SB)/8, $2
DATA binLo<>+0x28(SB)/8, $10
DATA binLo<>+0x30(SB)/8, $3
DATA binLo<>+0x38(SB)/8, $11
GLOBL binLo<>(SB), RODATA, $64
DATA binHi<>+0x00(SB)/8, $4
DATA binHi<>+0x08(SB)/8, $12
DATA binHi<>+0x10(SB)/8, $5
DATA binHi<>+0x18(SB)/8, $13
DATA binHi<>+0x20(SB)/8, $6
DATA binHi<>+0x28(SB)/8, $14
DATA binHi<>+0x30(SB)/8, $7
DATA binHi<>+0x38(SB)/8, $15
GLOBL binHi<>(SB), RODATA, $64

// AB_PACK(re, im, base, off, klo, khi) interleaves a group's Re and Im
// vectors over its eight bins into (re, im) pairs and stores bins 0-3 at
// off(base)(BX*1) under klo and bins 4-7 at off+64 under khi. Clobbers
// Z21, Z22.
#define AB_PACK(re, im, base, off, klo, khi) \
	VMOVAPD   re, Z21 \
	VMOVAPD   re, Z22 \
	VPERMT2PD im, Z29, Z21 \
	VPERMT2PD im, Z30, Z22 \
	VMOVUPD   Z21, klo, off(base)(BX*1) \
	VMOVUPD   Z22, khi, off+64(base)(BX*1)

// func almBinsAsm(slots []binSlot, coef, sums, scale, dst, w []float64, nb, stride int)
// AlmBins / AlmBinsPacked (w empty selects the split layout), sixteen bins
// at a time: per block (R9 at its columns of the sums; K1 and K4 the bins of
// its two groups of eight, K4 empty when only one is left), every binSlot's
// four FMA chains — group and Re/Im, the broadcast coefficient times the sum
// row, every other row, masked loads so a missing group reads nothing —
// from +0, then + 0, stored under the masks into the slot's slab row at
// R13 = stride bytes: split, Re at DI and Im at R10 = DI + 8 nb; packed,
// interleaved into (re, im) pairs under K2 / K3 (group 0's bins 0-3 / 4-7)
// and K5 / K6 (group 1's), then the same with both scaled by the block's
// scale vectors (Z28, Z27) into w at R11. An m = 0 slot's Im chains stay +0.
TEXT ·almBinsAsm(SB), NOSPLIT, $0-160
	MOVQ      sums_base+48(FP), R9
	MOVQ      nb+144(FP), R12
	LEAQ      7(R12), R12
	SHRQ      $3, R12
	SHLQ      $6, R12             // sums row length in bytes
	MOVQ      stride+152(FP), R13
	SHLQ      $3, R13             // slab row length in bytes
	VPXORQ    Z31, Z31, Z31
	VMOVDQU64 binLo<>(SB), Z29
	VMOVDQU64 binHi<>(SB), Z30

abblock:
	// BX = 64 g for the block's first group g; its bins r = nb - 8g, of
	// which min(r, 8) in group 0 and min(max(r-8, 0), 8) in group 1.
	MOVQ    R9, BX
	SUBQ    sums_base+48(FP), BX
	MOVQ    BX, DX
	SHRQ    $3, DX
	NEGQ    DX
	ADDQ    nb+144(FP), DX
	MOVL    $16, AX
	CMPQ    DX, AX
	CMOVQGT AX, DX              // DX = min(r, 16)
	MOVL    $1, AX
	MOVQ    DX, CX
	SHLL    CX, AX
	DECL    AX                  // bit b: bin 8g+b of the block
	KMOVW   AX, K1
	SHRL    $8, AX
	KMOVW   AX, K4
	MOVL    $8, AX
	MOVQ    DX, CX
	CMPQ    CX, AX
	CMOVQGT AX, CX
	ADDL    CX, CX
	MOVL    $1, AX
	SHLL    CX, AX
	DECL    AX                  // group 0's (re, im) lanes
	KMOVW   AX, K2
	SHRL    $8, AX
	KMOVW   AX, K3
	XORL    CX, CX
	SUBQ    $8, DX
	CMOVQGT DX, CX
	ADDL    CX, CX
	MOVL    $1, AX
	SHLL    CX, AX
	DECL    AX                  // group 1's
	KMOVW   AX, K5
	SHRL    $8, AX
	KMOVW   AX, K6
	MOVQ    dst_base+96(FP), DI
	MOVQ    w_base+120(FP), R11
	CMPQ    w_len+128(FP), $0
	JNE     abpacked
	ADDQ    BX, DI
	MOVQ    nb+144(FP), R10
	LEAQ    (DI)(R10*8), R10
	JMP     abslots

abpacked:
	LEAQ      (DI)(BX*2), DI
	LEAQ      (R11)(BX*2), R11
	MOVQ      scale_base+72(FP), AX
	VMOVUPD.Z (AX)(BX*1), K1, Z28
	VMOVUPD.Z 64(AX)(BX*1), K4, Z27

abslots:
	MOVQ slots_base+0(FP), SI
	MOVQ slots_len+8(FP), R8
	MOVQ coef_base+24(FP), DX

abslot:
	MOVQ   (SI), R14
	IMULQ  R12, R14
	ADDQ   R9, R14             // Re row of the first term
	MOVQ   8(SI), R15
	MOVQ   16(SI), AX          // terms
	VPXORQ Z16, Z16, Z16
	VPXORQ Z17, Z17, Z17
	VPXORQ Z18, Z18, Z18
	VPXORQ Z19, Z19, Z19
	TESTQ  R15, R15
	JS     abreal
	IMULQ  R12, R15
	ADDQ   R9, R15             // Im row of the first term

abcterm:
	VBROADCASTSD (DX), Z20
	VFMADD231PD  (R14), Z20, Z16
	VFMADD231PD  64(R14), Z20, K4, Z18
	VFMADD231PD  (R15), Z20, Z17
	VFMADD231PD  64(R15), Z20, K4, Z19
	ADDQ         $8, DX
	LEAQ         (R14)(R12*2), R14
	LEAQ         (R15)(R12*2), R15
	DECQ         AX
	JNZ          abcterm
	JMP          abstore

abreal:
	VBROADCASTSD (DX), Z20
	VFMADD231PD  (R14), Z20, Z16
	VFMADD231PD  64(R14), Z20, K4, Z18
	ADDQ         $8, DX
	LEAQ         (R14)(R12*2), R14
	DECQ         AX
	JNZ          abreal

abstore:
	VADDPD Z31, Z16, Z16
	VADDPD Z31, Z17, Z17
	VADDPD Z31, Z18, Z18
	VADDPD Z31, Z19, Z19
	MOVQ   24(SI), BX
	IMULQ  R13, BX             // the slot's slab row
	CMPQ   w_len+128(FP), $0
	JNE    abpstore
	VMOVUPD Z16, K1, (DI)(BX*1)
	VMOVUPD Z17, K1, (R10)(BX*1)
	VMOVUPD Z18, K4, 64(DI)(BX*1)
	VMOVUPD Z19, K4, 64(R10)(BX*1)
	JMP     abnext

abpstore:
	AB_PACK(Z16, Z17, DI, 0, K2, K3)
	AB_PACK(Z18, Z19, DI, 128, K5, K6)
	VMULPD Z28, Z16, Z16
	VMULPD Z28, Z17, Z17
	VMULPD Z27, Z18, Z18
	VMULPD Z27, Z19, Z19
	AB_PACK(Z16, Z17, R11, 0, K2, K3)
	AB_PACK(Z18, Z19, R11, 128, K5, K6)

abnext:
	ADDQ $32, SI
	DECQ R8
	JNZ  abslot
	ADDQ $128, R9
	MOVQ R9, BX
	SUBQ sums_base+48(FP), BX
	SHRQ $3, BX
	CMPQ BX, nb+144(FP)
	JB   abblock
	RET

// lmIdxA and lmIdxB pick the group-A and group-B sums of eight orders out of
// the two RD_HALVES results [A0 A1 B0 B1 A2 A3 B2 B3] and [A4 ... B7].
DATA lmIdxA<>+0x00(SB)/8, $0
DATA lmIdxA<>+0x08(SB)/8, $1
DATA lmIdxA<>+0x10(SB)/8, $4
DATA lmIdxA<>+0x18(SB)/8, $5
DATA lmIdxA<>+0x20(SB)/8, $8
DATA lmIdxA<>+0x28(SB)/8, $9
DATA lmIdxA<>+0x30(SB)/8, $12
DATA lmIdxA<>+0x38(SB)/8, $13
GLOBL lmIdxA<>(SB), RODATA, $64
DATA lmIdxB<>+0x00(SB)/8, $2
DATA lmIdxB<>+0x08(SB)/8, $3
DATA lmIdxB<>+0x10(SB)/8, $6
DATA lmIdxB<>+0x18(SB)/8, $7
DATA lmIdxB<>+0x20(SB)/8, $10
DATA lmIdxB<>+0x28(SB)/8, $11
DATA lmIdxB<>+0x30(SB)/8, $14
DATA lmIdxB<>+0x38(SB)/8, $15
GLOBL lmIdxB<>(SB), RODATA, $64

// LM_STEP2(off, rx, qx, px, ry, qy, py) is one order of the recurrence for
// both register sets, X over the eight pairs of Z24 (z) and Y over those of
// Z8: r = (a_n z) q - b_n p, each product rounded, with a_n and b_n
// broadcast from off(R12) and off(R13). Clobbers Z14, Z15, Z25, Z26.
#define LM_STEP2(off, rx, qx, px, ry, qy, py) \
	VMULPD.BCST off(R12), Z24, Z25 \
	VMULPD.BCST off(R12), Z8, Z14 \
	VMULPD      qx, Z25, Z25 \
	VMULPD      qy, Z14, Z14 \
	VMULPD.BCST off(R13), px, Z26 \
	VMULPD.BCST off(R13), py, Z15 \
	VSUBPD      Z26, Z25, rx \
	VSUBPD      Z15, Z14, ry

// RD_PAIR3(a, b, d, t) is RD_PAIR into d, leaving a and b intact.
#define RD_PAIR3(a, b, d, t) \
	VUNPCKHPD b, a, t \
	VUNPCKLPD b, a, d \
	VADDPD    t, d, d

// func legendreMomentsAsm(zs, ws, out []float64, ents []momEntry, nL int)
// The vector body of LegendreMoments(Tiles) after out is cleared: the
// entries run two at a time (their count is even) through lmPair<>, X
// loaded from the first (Z24 = z, Z28 = w, R14 = its moments row) and Y from
// the second (Z8, Z29, R15).
TEXT ·legendreMomentsAsm(SB), NOSPLIT, $0-104
	MOVQ      zs_base+0(FP), SI
	MOVQ      ws_base+24(FP), DI
	MOVQ      out_base+48(FP), R9
	MOVQ      ents_base+72(FP), BX
	MOVQ      ents_len+80(FP), R8
	MOVQ      nL+96(FP), R10
	SHRQ      $1, R8
	JZ        lmdone
	VMOVDQU64 lmIdxA<>(SB), Z30
	VMOVDQU64 lmIdxB<>(SB), Z31

lmnext:
	MOVQ        (BX), AX
	KMOVW       8(BX), K1
	VEXPANDPD.Z (SI)(AX*1), K1, Z24
	VEXPANDPD.Z (DI)(AX*1), K1, Z28
	MOVQ        16(BX), R14
	ADDQ        R9, R14
	MOVQ        24(BX), AX
	KMOVW       32(BX), K1
	VEXPANDPD.Z (SI)(AX*1), K1, Z8
	VEXPANDPD.Z (DI)(AX*1), K1, Z29
	MOVQ        40(BX), R15
	ADDQ        R9, R15
	CALL        lmPair<>(SB)
	ADDQ        $48, BX
	DECQ        R8
	JNZ         lmnext
	VZEROUPPER

lmdone:
	RET

// LM_TREE(r0, ..., r7, row) folds one register set's chunk — R0-R7 the
// recurrence values of eight orders over eight pairs — into its two groups
// of four per order, (r0+r1)+(r2+r3) and (r4+r5)+(r6+r7), permutes them into
// an order vector each (Z9 = group A, Z10 = group B), and adds group A's,
// then group B's, to the moments row's chunk at row under K3. Clobbers
// Z9-Z13, Z27.
#define LM_TREE(r0, r1, r2, r3, r4, r5, r6, r7, row) \
	RD_PAIR3(r0, r1, Z9, Z13) \
	RD_PAIR3(r2, r3, Z10, Z13) \
	RD_PAIR3(r4, r5, Z11, Z13) \
	RD_PAIR3(r6, r7, Z12, Z13) \
	RD_HALVES(Z9, Z10, Z13) \
	RD_HALVES(Z11, Z12, Z13) \
	VMOVAPD   Z9, Z10 \
	VPERMT2PD Z11, Z30, Z9 \
	VPERMT2PD Z11, Z31, Z10 \
	VMOVUPD.Z row, K3, Z27 \
	VADDPD    Z9, Z27, Z27 \
	VADDPD    Z10, Z27, Z27 \
	VMOVUPD   Z27, K3, row

// lmPair<> carries two registers of eight pairs each, X (Z24 = z, Z28 = w)
// and Y (Z8, Z29), through the recurrence side by side, so each hides the
// other's latency, eight orders at a time. Per set, R0-R7 (X: Z16-Z23, Y:
// Z0-Z7) hold the chunk's q_n — q_0 = w^2 and, before it, P_{-1} = +0,
// which b_1 = 0 multiplies away — so the state across chunks is R6, R7.
// Per chunk X's group sums join its row (R14), then Y's join its own (R15),
// in that order when the two rows are one. DX counts the orders left, and
// the orders past the last chunk's K3 lanes compute from the padded
// recurrence tables and are dropped. Clobbers R12-R15, AX, CX, DX, Z0-Z29,
// K3.
TEXT lmPair<>(SB), NOSPLIT, $0
	VMULPD Z28, Z28, Z16
	VMULPD Z29, Z29, Z0
	VPXORQ Z23, Z23, Z23
	VPXORQ Z7, Z7, Z7
	LEAQ   ·momentA(SB), R12
	LEAQ   ·momentB(SB), R13
	MOVQ   R10, DX
	JMP    lmstep1

lmchunk:
	LM_STEP2(0, Z16, Z23, Z22, Z0, Z7, Z6)

lmstep1:
	LM_STEP2(8, Z17, Z16, Z23, Z1, Z0, Z7)
	LM_STEP2(16, Z18, Z17, Z16, Z2, Z1, Z0)
	LM_STEP2(24, Z19, Z18, Z17, Z3, Z2, Z1)
	LM_STEP2(32, Z20, Z19, Z18, Z4, Z3, Z2)
	LM_STEP2(40, Z21, Z20, Z19, Z5, Z4, Z3)
	LM_STEP2(48, Z22, Z21, Z20, Z6, Z5, Z4)
	LM_STEP2(56, Z23, Z22, Z21, Z7, Z6, Z5)
	MOVQ    DX, CX
	MOVL    $8, AX
	CMPQ    CX, AX
	CMOVQGT AX, CX
	MOVL    $1, AX
	SHLL    CX, AX
	DECL    AX
	KMOVW   AX, K3
	LM_TREE(Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23, (R14))
	LM_TREE(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, (R15))
	ADDQ    $64, R12
	ADDQ    $64, R13
	ADDQ    $64, R14
	ADDQ    $64, R15
	SUBQ    $8, DX
	JGT     lmchunk
	RET
