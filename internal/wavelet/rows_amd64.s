//go:build !purego

#include "textflag.h"

// AVX2 bodies of the hot row primitives (see rows_amd64.go). Each takes
// its row pointers and lane count from the frame, turns the count into
// bytes in CX, broadcasts its coefficients (c in Y8, s in Y9), and runs
// one of the loops below with the precision's add and multiply. A loop
// step covers 64 bytes, two YMM registers, with unaligned loads and
// stores: DI is the output row, R8 x, SI a, DX b, AX the byte offset.
// Each lane sees the Go loop's operations in its order, each rounded on
// its own: VADD and VMUL, never a fused multiply-add.

// SUM_AB sets Y0, Y1 to a+b and opens the loop.
#define SUM_AB(ADD) \
	XORQ    AX, AX \
loop: \
	VMOVUPS (SI)(AX*1), Y0 \
	VMOVUPS 32(SI)(AX*1), Y1 \
	ADD     (DX)(AX*1), Y0, Y0 \
	ADD     32(DX)(AX*1), Y1, Y1

// STORE_NEXT stores Y0, Y1 to the output row and closes the loop.
#define STORE_NEXT \
	VMOVUPS Y0, (DI)(AX*1) \
	VMOVUPS Y1, 32(DI)(AX*1) \
	ADDQ    $64, AX \
	CMPQ    AX, CX \
	JB      loop \
	VZEROUPPER \
	RET

// ADD_SUM is x += c*(a+b), x being the output row.
#define ADD_SUM(ADD, MUL) \
	SUM_AB(ADD) \
	MUL     Y8, Y0, Y0 \
	MUL     Y8, Y1, Y1 \
	ADD     (DI)(AX*1), Y0, Y0 \
	ADD     32(DI)(AX*1), Y1, Y1 \
	STORE_NEXT

// ADD_SUM_SCALE is d = (x + c*(a+b))*s.
#define ADD_SUM_SCALE(ADD, MUL) \
	SUM_AB(ADD) \
	MUL     Y8, Y0, Y0 \
	MUL     Y8, Y1, Y1 \
	ADD     (R8)(AX*1), Y0, Y0 \
	ADD     32(R8)(AX*1), Y1, Y1 \
	MUL     Y9, Y0, Y0 \
	MUL     Y9, Y1, Y1 \
	STORE_NEXT

// SCALE_ADD_SUM is d = x*s + c*(a+b).
#define SCALE_ADD_SUM(ADD, MUL) \
	SUM_AB(ADD) \
	MUL     Y8, Y0, Y0 \
	MUL     Y8, Y1, Y1 \
	MUL     (R8)(AX*1), Y9, Y2 \
	MUL     32(R8)(AX*1), Y9, Y3 \
	ADD     Y2, Y0, Y0 \
	ADD     Y3, Y1, Y1 \
	STORE_NEXT

// SCALE is d = x*s.
#define SCALE(MUL) \
	XORQ    AX, AX \
loop: \
	MUL     (R8)(AX*1), Y9, Y0 \
	MUL     32(R8)(AX*1), Y9, Y1 \
	STORE_NEXT

// func addSumRowF64(x, a, b *float64, n int, c float64)
TEXT ·addSumRowF64(SB), NOSPLIT, $0-40
	MOVQ         x+0(FP), DI
	MOVQ         a+8(FP), SI
	MOVQ         b+16(FP), DX
	MOVQ         n+24(FP), CX
	SHLQ         $3, CX
	VBROADCASTSD c+32(FP), Y8
	ADD_SUM(VADDPD, VMULPD)

// func addSumRowF32(x, a, b *float32, n int, c float32)
TEXT ·addSumRowF32(SB), NOSPLIT, $0-36
	MOVQ         x+0(FP), DI
	MOVQ         a+8(FP), SI
	MOVQ         b+16(FP), DX
	MOVQ         n+24(FP), CX
	SHLQ         $2, CX
	VBROADCASTSS c+32(FP), Y8
	ADD_SUM(VADDPS, VMULPS)

// func scaleRowF64(d, x *float64, n int, s float64)
TEXT ·scaleRowF64(SB), NOSPLIT, $0-32
	MOVQ         d+0(FP), DI
	MOVQ         x+8(FP), R8
	MOVQ         n+16(FP), CX
	SHLQ         $3, CX
	VBROADCASTSD s+24(FP), Y9
	SCALE(VMULPD)

// func scaleRowF32(d, x *float32, n int, s float32)
TEXT ·scaleRowF32(SB), NOSPLIT, $0-28
	MOVQ         d+0(FP), DI
	MOVQ         x+8(FP), R8
	MOVQ         n+16(FP), CX
	SHLQ         $2, CX
	VBROADCASTSS s+24(FP), Y9
	SCALE(VMULPS)

// func addSumScaleRowF64(d, x, a, b *float64, n int, c, s float64)
TEXT ·addSumScaleRowF64(SB), NOSPLIT, $0-56
	MOVQ         d+0(FP), DI
	MOVQ         x+8(FP), R8
	MOVQ         a+16(FP), SI
	MOVQ         b+24(FP), DX
	MOVQ         n+32(FP), CX
	SHLQ         $3, CX
	VBROADCASTSD c+40(FP), Y8
	VBROADCASTSD s+48(FP), Y9
	ADD_SUM_SCALE(VADDPD, VMULPD)

// func addSumScaleRowF32(d, x, a, b *float32, n int, c, s float32)
TEXT ·addSumScaleRowF32(SB), NOSPLIT, $0-48
	MOVQ         d+0(FP), DI
	MOVQ         x+8(FP), R8
	MOVQ         a+16(FP), SI
	MOVQ         b+24(FP), DX
	MOVQ         n+32(FP), CX
	SHLQ         $2, CX
	VBROADCASTSS c+40(FP), Y8
	VBROADCASTSS s+44(FP), Y9
	ADD_SUM_SCALE(VADDPS, VMULPS)

// func scaleAddSumRowF64(d, x, a, b *float64, n int, s, c float64)
TEXT ·scaleAddSumRowF64(SB), NOSPLIT, $0-56
	MOVQ         d+0(FP), DI
	MOVQ         x+8(FP), R8
	MOVQ         a+16(FP), SI
	MOVQ         b+24(FP), DX
	MOVQ         n+32(FP), CX
	SHLQ         $3, CX
	VBROADCASTSD s+40(FP), Y9
	VBROADCASTSD c+48(FP), Y8
	SCALE_ADD_SUM(VADDPD, VMULPD)

// func scaleAddSumRowF32(d, x, a, b *float32, n int, s, c float32)
TEXT ·scaleAddSumRowF32(SB), NOSPLIT, $0-48
	MOVQ         d+0(FP), DI
	MOVQ         x+8(FP), R8
	MOVQ         a+16(FP), SI
	MOVQ         b+24(FP), DX
	MOVQ         n+32(FP), CX
	SHLQ         $2, CX
	VBROADCASTSS s+40(FP), Y9
	VBROADCASTSS c+44(FP), Y8
	SCALE_ADD_SUM(VADDPS, VMULPS)
