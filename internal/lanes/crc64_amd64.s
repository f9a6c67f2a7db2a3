//go:build amd64

#include "textflag.h"

// func foldCLMUL(s uint64, p []byte, lane *[16]byte)
//
// Folds p (len a multiple of 16, at least 64) into one 128-bit lane
// congruent to it mod P, with the register s XORed into its first 8 bytes:
// four lanes per 64 bytes, then the lanes merged and the remaining 16-byte
// blocks folded in one at a time — hash/crc32's ieeeCLMUL shape — with the
// multiplier pairs of foldKeys.
TEXT ·foldCLMUL(SB), NOSPLIT, $0-40
	MOVQ s+0(FP), X0
	MOVQ p_base+8(FP), SI
	MOVQ p_len+16(FP), CX

	MOVOU (SI), X1
	MOVOU 16(SI), X2
	MOVOU 32(SI), X3
	MOVOU 48(SI), X4
	PXOR  X0, X1
	ADDQ  $64, SI
	SUBQ  $64, CX
	CMPQ  CX, $64
	JB    merge

	MOVOU ·foldKeys+0(SB), X0

loop64:
	MOVOA     X1, X5
	MOVOA     X2, X6
	MOVOA     X3, X7
	MOVOA     X4, X8
	PCLMULQDQ $0x00, X0, X1
	PCLMULQDQ $0x00, X0, X2
	PCLMULQDQ $0x00, X0, X3
	PCLMULQDQ $0x00, X0, X4
	MOVOU     (SI), X11
	MOVOU     16(SI), X12
	MOVOU     32(SI), X13
	MOVOU     48(SI), X14
	PCLMULQDQ $0x11, X0, X5
	PCLMULQDQ $0x11, X0, X6
	PCLMULQDQ $0x11, X0, X7
	PCLMULQDQ $0x11, X0, X8
	PXOR      X5, X1
	PXOR      X6, X2
	PXOR      X7, X3
	PXOR      X8, X4
	PXOR      X11, X1
	PXOR      X12, X2
	PXOR      X13, X3
	PXOR      X14, X4
	ADDQ      $64, SI
	SUBQ      $64, CX
	CMPQ      CX, $64
	JAE       loop64

merge:
	MOVOU     ·foldKeys+16(SB), X0
	MOVOA     X1, X5
	PCLMULQDQ $0x00, X0, X1
	PCLMULQDQ $0x11, X0, X5
	PXOR      X5, X1
	PXOR      X2, X1
	MOVOA     X1, X5
	PCLMULQDQ $0x00, X0, X1
	PCLMULQDQ $0x11, X0, X5
	PXOR      X5, X1
	PXOR      X3, X1
	MOVOA     X1, X5
	PCLMULQDQ $0x00, X0, X1
	PCLMULQDQ $0x11, X0, X5
	PXOR      X5, X1
	PXOR      X4, X1
	CMPQ      CX, $16
	JB        done

step16:
	MOVOU     (SI), X2
	MOVOA     X1, X5
	PCLMULQDQ $0x00, X0, X1
	PCLMULQDQ $0x11, X0, X5
	PXOR      X5, X1
	PXOR      X2, X1
	ADDQ      $16, SI
	SUBQ      $16, CX
	CMPQ      CX, $16
	JAE       step16

done:
	MOVQ  lane+32(FP), AX
	MOVOU X1, (AX)
	RET
