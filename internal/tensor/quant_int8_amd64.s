//go:build amd64 && !noasm

#include "textflag.h"

// Both int8 tile kernels share one contract (see int8Kernel.rows in
// quant.go):
//
// func gemmInt8XXX(c *int32, a, b *int8, ldc, k, rows, n int)
//
// For r < rows and j < n, with A(r,p) = a[r*k+p], B(j,p) = b[j*k+p] and
// C(r,j) = c[r*ldc+j]:
//
//	C(r,j) = Σ_p A(r,p)·B(j,p), p < k, in int32 arithmetic
//
// The sums wrap modulo 2³² exactly as an int32 loop does, so every output
// equals the scalar reference bit for bit whatever the order of the
// terms. One tile is rows × 4 outputs: the rows of A and four rows of B
// are loaded once per k chunk for all the outputs that use them, each
// output keeps a vector of partial sums, and a transposing add tree
// reduces the tile's vectors to one vector of outputs at the end. A tile
// with fewer than its full rows of A, or a last tile with fewer than 4
// columns, repeats the last real row of A or B in the missing ones;
// their outputs are computed and not stored. No load or store touches
// memory outside A's rows, B's n rows or C's rows × n block.

// One 64-byte chunk of the VNNI tile: four A rows (signed) in Z16-Z19,
// each B row offset to unsigned by XOR 0x80 (Z28), and 16 VPDPBUSD into
// the accumulators Z0-Z15, acc[r][s] in Z(4s+r).
#define VNNI_COLUMN(bv, z0, z1, z2, z3) \
	VPDPBUSD Z16, bv, z0; \
	VPDPBUSD Z17, bv, z1; \
	VPDPBUSD Z18, bv, z2; \
	VPDPBUSD Z19, bv, z3

// Z0 = (Σ lanes of Z(4s+r)) at element 4r+s: a transposing add tree
// over the 16 accumulators (512 → 256 → 128 → 64 → 32 bits), 45
// instructions. Clobbers Z1-Z17.
#define REDUCE16 \
	VSHUFI64X2 $0x44, Z1, Z0, Z16; VSHUFI64X2 $0xee, Z1, Z0, Z0; VPADDD Z16, Z0, Z0; \
	VSHUFI64X2 $0x44, Z3, Z2, Z17; VSHUFI64X2 $0xee, Z3, Z2, Z2; VPADDD Z17, Z2, Z2; \
	VSHUFI64X2 $0x44, Z5, Z4, Z16; VSHUFI64X2 $0xee, Z5, Z4, Z4; VPADDD Z16, Z4, Z4; \
	VSHUFI64X2 $0x44, Z7, Z6, Z17; VSHUFI64X2 $0xee, Z7, Z6, Z6; VPADDD Z17, Z6, Z6; \
	VSHUFI64X2 $0x44, Z9, Z8, Z16; VSHUFI64X2 $0xee, Z9, Z8, Z8; VPADDD Z16, Z8, Z8; \
	VSHUFI64X2 $0x44, Z11, Z10, Z17; VSHUFI64X2 $0xee, Z11, Z10, Z10; VPADDD Z17, Z10, Z10; \
	VSHUFI64X2 $0x44, Z13, Z12, Z16; VSHUFI64X2 $0xee, Z13, Z12, Z12; VPADDD Z16, Z12, Z12; \
	VSHUFI64X2 $0x44, Z15, Z14, Z17; VSHUFI64X2 $0xee, Z15, Z14, Z14; VPADDD Z17, Z14, Z14; \
	VSHUFI64X2 $0x88, Z2, Z0, Z16; VSHUFI64X2 $0xdd, Z2, Z0, Z0; VPADDD Z16, Z0, Z0; \
	VSHUFI64X2 $0x88, Z6, Z4, Z17; VSHUFI64X2 $0xdd, Z6, Z4, Z4; VPADDD Z17, Z4, Z4; \
	VSHUFI64X2 $0x88, Z10, Z8, Z16; VSHUFI64X2 $0xdd, Z10, Z8, Z8; VPADDD Z16, Z8, Z8; \
	VSHUFI64X2 $0x88, Z14, Z12, Z17; VSHUFI64X2 $0xdd, Z14, Z12, Z12; VPADDD Z17, Z12, Z12; \
	VPUNPCKLQDQ Z4, Z0, Z16; VPUNPCKHQDQ Z4, Z0, Z0; VPADDD Z16, Z0, Z0; \
	VPUNPCKLQDQ Z12, Z8, Z17; VPUNPCKHQDQ Z12, Z8, Z8; VPADDD Z17, Z8, Z8; \
	VSHUFPS $0x88, Z8, Z0, Z16; VSHUFPS $0xdd, Z8, Z0, Z0; VPADDD Z16, Z0, Z0

// off = min(i, last) * k: the byte offset of tile row i, the rows past
// the last real one repeating it.
#define CLAMPROW(i, last, k, off) \
	MOVQ $i, off; \
	CMPQ off, last; \
	CMOVQGT last, off; \
	IMULQ k, off

// func gemmInt8VNNI(c *int32, a, b *int8, ldc, k, rows, n int)
//
// AVX-512 VNNI, 4 rows × 4 columns per tile (rows <= 4), 64 bytes of k
// per step and a byte-masked step for the k%64 tail. VPDPBUSD multiplies
// unsigned by signed bytes, so B is read offset by +128 (XOR 0x80) and
// the tile computes Σ (B+128)·A = Σ A·B + 128·Σ A; the row sums 128·Σ A
// come from the same instruction with 0x80 bytes against A, once per
// call, and are subtracted from the reduced tile. Every step wraps
// modulo 2³² (VPDPBUSD, VPADDD and VPSUBD do not saturate), so the
// correction is exact. SI/DI walk A and B along k; R10-R12 and R13-R15
// hold the byte offsets of tile rows 1-3 of A and B.
TEXT ·gemmInt8VNNI(SB), NOSPLIT, $0-56
	MOVQ k+32(FP), R8
	MOVQ R8, R9
	SHRQ $6, R9                  // R9 = full 64-byte chunks
	MOVQ R8, CX
	ANDQ $63, CX
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
	KMOVQ AX, K2                 // K2 = the k%64 tail's bytes

	MOVQ rows+40(FP), AX
	DECQ AX
	CLAMPROW(1, AX, R8, R10)
	CLAMPROW(2, AX, R8, R11)
	CLAMPROW(3, AX, R8, R12)

	MOVL         $0x80808080, AX
	VPBROADCASTD AX, Z28

	// Z24[4r+s] = 128·Σ_p A(r,p): the 0x80 bytes against each A row,
	// copied to the four column positions and reduced like a tile.
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	MOVQ   a+8(FP), SI
	MOVQ   R9, CX
	TESTQ  CX, CX
	JZ     sumtail

sumloop:
	VPDPBUSD (SI), Z28, Z0
	VPDPBUSD (SI)(R10*1), Z28, Z1
	VPDPBUSD (SI)(R11*1), Z28, Z2
	VPDPBUSD (SI)(R12*1), Z28, Z3
	ADDQ     $64, SI
	DECQ     CX
	JNZ      sumloop

sumtail:
	KORTESTQ   K2, K2
	JZ         sumdone
	VMOVDQU8.Z (SI), K2, Z16
	VMOVDQU8.Z (SI)(R10*1), K2, Z17
	VMOVDQU8.Z (SI)(R11*1), K2, Z18
	VMOVDQU8.Z (SI)(R12*1), K2, Z19
	VPDPBUSD   Z16, Z28, Z0
	VPDPBUSD   Z17, Z28, Z1
	VPDPBUSD   Z18, Z28, Z2
	VPDPBUSD   Z19, Z28, Z3

sumdone:
	VMOVDQA64 Z0, Z4
	VMOVDQA64 Z1, Z5
	VMOVDQA64 Z2, Z6
	VMOVDQA64 Z3, Z7
	VMOVDQA64 Z0, Z8
	VMOVDQA64 Z1, Z9
	VMOVDQA64 Z2, Z10
	VMOVDQA64 Z3, Z11
	VMOVDQA64 Z0, Z12
	VMOVDQA64 Z1, Z13
	VMOVDQA64 Z2, Z14
	VMOVDQA64 Z3, Z15
	REDUCE16
	VMOVDQA64 Z0, Z24

	MOVQ R8, R13
	LEAQ (R8)(R8*1), R14
	LEAQ (R8)(R8*2), R15
	MOVQ b+16(FP), BX            // BX = B row of the tile's first column
	MOVQ c+0(FP), DX             // DX = C(0, j)
	MOVQ n+48(FP), AX            // AX = columns left

tile:
	CMPQ AX, $4
	JGE  tilek
	MOVQ AX, CX                  // last tile: B rows past n repeat row n-1
	DECQ CX
	CLAMPROW(1, CX, R8, R13)
	CLAMPROW(2, CX, R8, R14)
	CLAMPROW(3, CX, R8, R15)

tilek:
	MOVQ   a+8(FP), SI
	MOVQ   BX, DI
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	VPXORD Z12, Z12, Z12
	VPXORD Z13, Z13, Z13
	VPXORD Z14, Z14, Z14
	VPXORD Z15, Z15, Z15
	MOVQ   R9, CX
	TESTQ  CX, CX
	JZ     ktail

kloop:
	VMOVDQU64 (SI), Z16
	VMOVDQU64 (SI)(R10*1), Z17
	VMOVDQU64 (SI)(R11*1), Z18
	VMOVDQU64 (SI)(R12*1), Z19
	VPXORD    (DI), Z28, Z20
	VNNI_COLUMN(Z20, Z0, Z1, Z2, Z3)
	VPXORD    (DI)(R13*1), Z28, Z21
	VNNI_COLUMN(Z21, Z4, Z5, Z6, Z7)
	VPXORD    (DI)(R14*1), Z28, Z22
	VNNI_COLUMN(Z22, Z8, Z9, Z10, Z11)
	VPXORD    (DI)(R15*1), Z28, Z23
	VNNI_COLUMN(Z23, Z12, Z13, Z14, Z15)
	ADDQ      $64, SI
	ADDQ      $64, DI
	DECQ      CX
	JNZ       kloop

ktail:
	// Masked bytes load as 0 in A, so the 0x80 they become in B adds
	// nothing.
	KORTESTQ   K2, K2
	JZ         reduce
	VMOVDQU8.Z (SI), K2, Z16
	VMOVDQU8.Z (SI)(R10*1), K2, Z17
	VMOVDQU8.Z (SI)(R11*1), K2, Z18
	VMOVDQU8.Z (SI)(R12*1), K2, Z19
	VMOVDQU8.Z (DI), K2, Z20
	VPXORD     Z20, Z28, Z20
	VNNI_COLUMN(Z20, Z0, Z1, Z2, Z3)
	VMOVDQU8.Z (DI)(R13*1), K2, Z21
	VPXORD     Z21, Z28, Z21
	VNNI_COLUMN(Z21, Z4, Z5, Z6, Z7)
	VMOVDQU8.Z (DI)(R14*1), K2, Z22
	VPXORD     Z22, Z28, Z22
	VNNI_COLUMN(Z22, Z8, Z9, Z10, Z11)
	VMOVDQU8.Z (DI)(R15*1), K2, Z23
	VPXORD     Z23, Z28, Z23
	VNNI_COLUMN(Z23, Z12, Z13, Z14, Z15)

reduce:
	REDUCE16
	VPSUBD Z24, Z0, Z0

	// Store row r from the low 128 bits of Z0, then rotate row r+1
	// down: min(AX, 4) columns of each of the tile's real rows.
	MOVQ DX, DI
	MOVQ ldc+24(FP), CX
	SHLQ $2, CX
	MOVQ rows+40(FP), SI

store:
	CMPQ    AX, $4
	JLT     storepart
	VMOVDQU X0, (DI)
	JMP     storenext

storepart:
	VMOVD   X0, (DI)
	CMPQ    AX, $2
	JLT     storenext
	VPEXTRD $1, X0, 4(DI)
	CMPQ    AX, $3
	JLT     storenext
	VPEXTRD $2, X0, 8(DI)

storenext:
	VALIGND $4, Z0, Z0, Z0
	ADDQ    CX, DI
	DECQ    SI
	JNZ     store

	LEAQ (BX)(R8*4), BX
	ADDQ $16, DX
	SUBQ $4, AX
	JGT  tile
	VZEROUPPER
	RET

// One 16-byte step of the AVX2 tile: B row bsrc widened to int16 in Y10,
// multiplied by the two widened A rows (Y8, Y9) pairwise into int32
// (VPMADDWD) and added to acc[0][s], acc[1][s] (Y(2s), Y(2s+1)).
#define AVX2_COLUMN(bsrc, y0, y1) \
	VPMOVSXBW bsrc, Y10; \
	VPMADDWD  Y8, Y10, Y11; \
	VPADDD    Y11, y0, y0; \
	VPMADDWD  Y9, Y10, Y12; \
	VPADDD    Y12, y1, y1

// func gemmInt8AVX2(c *int32, a, b *int8, ldc, k, rows, n int)
//
// AVX2, 2 rows × 4 columns per tile (rows <= 2, k >= 16), 16 bytes of k
// per step. Each byte is sign-extended to int16 (VPMOVSXBW) and adjacent
// products are summed into int32 (VPMADDWD, exact: |sum| <= 2·128²). A
// k%16 tail runs as one more step over the last 16 bytes of each row,
// with the A bytes already counted masked to 0 (X14). Y0-Y7 hold the
// accumulators, acc[r][s] in Y(2s+r); the add tree leaves C(r,s) at
// element 4r+s of Y0. SI/DI walk A and B along k; R10 and R13-R15 hold
// the byte offsets of tile row 1 of A and rows 1-3 of B.
TEXT ·gemmInt8AVX2(SB), NOSPLIT, $0-56
	MOVQ k+32(FP), R8
	MOVQ R8, R9
	SHRQ $4, R9                  // R9 = full 16-byte steps

	// X14 byte i = 0xff when i >= 16 - k%16: the tail window's new bytes.
	MOVQ         R8, AX
	ANDQ         $15, AX
	NEGQ         AX
	ADDQ         $15, AX
	VMOVD        AX, X13
	VPBROADCASTB X13, X13
	MOVQ         $0x0706050403020100, AX
	VMOVQ        AX, X12
	MOVQ         $0x0f0e0d0c0b0a0908, AX
	VPINSRQ      $1, AX, X12, X12
	VPCMPGTB     X13, X12, X14

	MOVQ rows+40(FP), AX
	DECQ AX
	CLAMPROW(1, AX, R8, R10)

	MOVQ R8, R13
	LEAQ (R8)(R8*1), R14
	LEAQ (R8)(R8*2), R15
	MOVQ b+16(FP), BX            // BX = B row of the tile's first column
	MOVQ c+0(FP), DX             // DX = C(0, j)
	MOVQ n+48(FP), AX            // AX = columns left

tile2:
	CMPQ AX, $4
	JGE  tilek2
	MOVQ AX, CX                  // last tile: B rows past n repeat row n-1
	DECQ CX
	CLAMPROW(1, CX, R8, R13)
	CLAMPROW(2, CX, R8, R14)
	CLAMPROW(3, CX, R8, R15)

tilek2:
	MOVQ  a+8(FP), SI
	MOVQ  BX, DI
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	MOVQ  R9, CX

kloop2:
	VPMOVSXBW (SI), Y8
	VPMOVSXBW (SI)(R10*1), Y9
	AVX2_COLUMN((DI), Y0, Y1)
	AVX2_COLUMN((DI)(R13*1), Y2, Y3)
	AVX2_COLUMN((DI)(R14*1), Y4, Y5)
	AVX2_COLUMN((DI)(R15*1), Y6, Y7)
	ADDQ      $16, SI
	ADDQ      $16, DI
	DECQ      CX
	JNZ       kloop2

	// The tail window [k-16, k): back SI and DI up by 16 - k%16.
	MOVQ      R8, CX
	ANDQ      $15, CX
	JZ        reduce2
	SUBQ      $16, CX
	ADDQ      CX, SI
	ADDQ      CX, DI
	VMOVDQU   (SI), X8
	VPAND     X14, X8, X8
	VPMOVSXBW X8, Y8
	VMOVDQU   (SI)(R10*1), X9
	VPAND     X14, X9, X9
	VPMOVSXBW X9, Y9
	AVX2_COLUMN((DI), Y0, Y1)
	AVX2_COLUMN((DI)(R13*1), Y2, Y3)
	AVX2_COLUMN((DI)(R14*1), Y4, Y5)
	AVX2_COLUMN((DI)(R15*1), Y6, Y7)

reduce2:
	// 256 → 128 → 64 → 32 bits, C(r,s) = Σ lanes of Y(2s+r) at element
	// 4r+s of Y0.
	VPERM2I128  $0x20, Y1, Y0, Y8
	VPERM2I128  $0x31, Y1, Y0, Y0
	VPADDD      Y8, Y0, Y0
	VPERM2I128  $0x20, Y3, Y2, Y9
	VPERM2I128  $0x31, Y3, Y2, Y2
	VPADDD      Y9, Y2, Y2
	VPERM2I128  $0x20, Y5, Y4, Y8
	VPERM2I128  $0x31, Y5, Y4, Y4
	VPADDD      Y8, Y4, Y4
	VPERM2I128  $0x20, Y7, Y6, Y9
	VPERM2I128  $0x31, Y7, Y6, Y6
	VPADDD      Y9, Y6, Y6
	VPUNPCKLQDQ Y2, Y0, Y8
	VPUNPCKHQDQ Y2, Y0, Y0
	VPADDD      Y8, Y0, Y0
	VPUNPCKLQDQ Y6, Y4, Y9
	VPUNPCKHQDQ Y6, Y4, Y4
	VPADDD      Y9, Y4, Y4
	VSHUFPS     $0x88, Y4, Y0, Y8
	VSHUFPS     $0xdd, Y4, Y0, Y0
	VPADDD      Y8, Y0, Y0

	MOVQ DX, DI
	MOVQ ldc+24(FP), CX
	SHLQ $2, CX
	MOVQ rows+40(FP), SI

store2:
	CMPQ    AX, $4
	JLT     storepart2
	VMOVDQU X0, (DI)
	JMP     storenext2

storepart2:
	VMOVD   X0, (DI)
	CMPQ    AX, $2
	JLT     storenext2
	VPEXTRD $1, X0, 4(DI)
	CMPQ    AX, $3
	JLT     storenext2
	VPEXTRD $2, X0, 8(DI)

storenext2:
	VPERM2I128 $0x01, Y0, Y0, Y0
	ADDQ       CX, DI
	DECQ       SI
	JNZ        store2

	LEAQ (BX)(R8*4), BX
	ADDQ $16, DX
	SUBQ $4, AX
	JGT  tile2
	VZEROUPPER
	RET
