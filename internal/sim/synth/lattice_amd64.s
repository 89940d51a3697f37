//go:build !purego

#include "textflag.h"

// func sumModesAVX2(row, sa, ca, p, q *float64, modes, stride, n int)
//
// The AVX2 body of sumModes (see lattice_amd64.go). A lane step covers
// 64 bytes, 8 float64 lanes in two YMM accumulators (Y0, Y1) that start
// at +0. For each mode in order it broadcasts p (Y2) and q (Y3), forms
// p·sin and q·cos, adds them, and adds the sum into the accumulators:
// the Go loop's operations in its order, each rounded on its own, never
// a fused multiply-add. DI is the row, SI and DX the sin and cos tables
// at the lane step's offset AX, R12 and R13 the current mode's entries,
// R11 the byte stride between modes, BX the mode index.
TEXT ·sumModesAVX2(SB), NOSPLIT, $0-64
	MOVQ row+0(FP), DI
	MOVQ sa+8(FP), SI
	MOVQ ca+16(FP), DX
	MOVQ p+24(FP), R8
	MOVQ q+32(FP), R9
	MOVQ modes+40(FP), R10
	MOVQ stride+48(FP), R11
	SHLQ $3, R11
	MOVQ n+56(FP), CX
	SHLQ $3, CX
	XORQ AX, AX

lanes:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	LEAQ   (SI)(AX*1), R12
	LEAQ   (DX)(AX*1), R13
	XORQ   BX, BX

modes:
	VBROADCASTSD (R8)(BX*8), Y2
	VBROADCASTSD (R9)(BX*8), Y3
	VMULPD       (R12), Y2, Y4
	VMULPD       32(R12), Y2, Y5
	VMULPD       (R13), Y3, Y6
	VMULPD       32(R13), Y3, Y7
	VADDPD       Y6, Y4, Y4
	VADDPD       Y7, Y5, Y5
	VADDPD       Y4, Y0, Y0
	VADDPD       Y5, Y1, Y1
	ADDQ         R11, R12
	ADDQ         R11, R13
	INCQ         BX
	CMPQ         BX, R10
	JB           modes

	VMOVUPD Y0, (DI)(AX*1)
	VMOVUPD Y1, 32(DI)(AX*1)
	ADDQ    $64, AX
	CMPQ    AX, CX
	JB      lanes
	VZEROUPPER
	RET
