//go:build amd64 && !noasm

#include "textflag.h"

// func dotInt8Asm(a, b *int8, k int, acc *int32)
//
// Int8 dot product over exactly k elements (k > 0, k % 16 == 0) with
// int32 accumulation. Per 16-byte block: VPMOVSXBW widens the int8
// lanes to int16, VPMADDWD multiplies adjacent int16 pairs and sums
// each pair into one of 8 int32 lanes, VPADDD accumulates. A pair sum
// is bounded by 2*127*127 = 32258, so the int32 lanes cannot overflow
// for any k this suite reaches (~66k blocks per lane would be needed).
// The main loop consumes 32 bytes per iteration into two independent
// accumulators; a single 16-byte step drains the remainder.
TEXT ·dotInt8Asm(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ k+16(FP), CX
	MOVQ acc+24(FP), DX

	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	XORQ  AX, AX

loop32:
	LEAQ 32(AX), BX
	CMPQ BX, CX
	JGT  tail16
	VPMOVSXBW (SI)(AX*1), Y2
	VPMOVSXBW (DI)(AX*1), Y3
	VPMADDWD  Y3, Y2, Y2
	VPADDD    Y2, Y0, Y0
	VPMOVSXBW 16(SI)(AX*1), Y4
	VPMOVSXBW 16(DI)(AX*1), Y5
	VPMADDWD  Y5, Y4, Y4
	VPADDD    Y4, Y1, Y1
	MOVQ      BX, AX
	JMP       loop32

tail16:
	CMPQ AX, CX
	JGE  reduce
	VPMOVSXBW (SI)(AX*1), Y2
	VPMOVSXBW (DI)(AX*1), Y3
	VPMADDWD  Y3, Y2, Y2
	VPADDD    Y2, Y0, Y0
	ADDQ      $16, AX
	JMP       tail16

reduce:
	// Fold the two accumulators, then the 8 int32 lanes, to one scalar.
	VPADDD       Y1, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDD       X1, X0, X0
	VPSHUFD      $0xEE, X0, X1
	VPADDD       X1, X0, X0
	VPSHUFD      $0x55, X0, X1
	VPADDD       X1, X0, X0
	VMOVD        X0, AX
	MOVL         AX, (DX)
	VZEROUPPER
	RET
