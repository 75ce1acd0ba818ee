//go:build amd64 && !noasm

#include "textflag.h"

// func cpuGemmFeatures() (avx2fma, avx512, vnni bool)
//
// avx2fma: the CPU advertises FMA, AVX and AVX2 and the OS saves XMM and
// YMM state (OSXSAVE, XCR0 bits 1 and 2). avx512: additionally AVX-512F,
// with the OS saving opmask and ZMM state (XCR0 bits 5, 6 and 7). vnni:
// additionally AVX512BW (byte masks) and AVX512_VNNI. CPUID clobbers BX,
// which is caller-saved in Go assembly.
TEXT ·cpuGemmFeatures(SB), NOSPLIT, $0-3
	MOVB $0, avx2fma+0(FP)
	MOVB $0, avx512+1(FP)
	MOVB $0, vnni+2(FP)

	// Leaf 1: ECX bit 12 = FMA, bit 27 = OSXSAVE, bit 28 = AVX.
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL $(1<<12 | 1<<27 | 1<<28), DX
	ANDL DX, CX
	CMPL CX, DX
	JNE  done

	// XGETBV(0) = XCR0, the state components the OS saves.
	XORL CX, CX
	XGETBV
	MOVL AX, R8
	ANDL $6, AX
	CMPL AX, $6
	JNE  done

	// Leaf 7 subleaf 0: EBX bit 5 = AVX2, bit 16 = AVX-512F, bit 30 =
	// AVX512BW; ECX bit 11 = AVX512_VNNI.
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $(1<<5), BX
	JZ    done
	MOVB  $1, avx2fma+0(FP)
	TESTL $(1<<16), BX
	JZ    done
	ANDL  $0xe6, R8
	CMPL  R8, $0xe6
	JNE   done
	MOVB  $1, avx512+1(FP)
	TESTL $(1<<30), BX
	JZ    done
	TESTL $(1<<11), CX
	JZ    done
	MOVB  $1, vnni+2(FP)

done:
	RET

// Both tile kernels share one contract (see tileFMA in gemm_tile.go):
//
// func gemmTileXXX(a, b, c *float64, keep *uint8, ars, aks, ldb, ldc, rows, cols, k4, tail, add int, ph *float64, mode int)
//
// For rows r < rows (a multiple of 4) and columns j < cols, with
// A(r,p) = a[r*ars+p*aks], B(p,j) = b[p*ldb+j] and C(r,j) = c[r*ldc+j]:
//
//	P_q  = FMA chain of A(r,p)·B(p,j) over p < k4, p ≡ q (mod 4)
//	s    = unfused chain of A(r,p)·B(p,j) over k4 <= p < k4+tail,
//	       keeping term k4+t only when bit t of keep[r/4] is set
//	v    = ((P0+P2) + (P1+P3)) + s
//	C    = add ? C + v : v
//
// k4 is a positive multiple of 4 and tail < 4. s starts at +0, so v is
// never -0. Vectors run along j; partial column strips are masked, so no
// load or store touches memory outside the tile.
//
// A long reduction runs as several calls over consecutive k blocks of
// one column strip, with the phase accumulators parked in ph between
// them (one block of registers per row block, stored exactly): mode bit
// 0 starts from the saved phases instead of +0, and mode bit 1 saves
// them and returns before the finish, the tail and the store.

// One k step of the 4×8 AVX-512 tile: the B row of p masked to the
// strip width, then A(r,p) for the block's four rows broadcast straight
// from memory into four FMAs on the accumulators of phase p%4.
#define STEP512(bsrc, zb, z0, z1, z2, z3) \
	VMOVUPD.Z bsrc, K1, zb; \
	VFMADD231PD.BCST (SI), zb, z0; \
	VFMADD231PD.BCST (SI)(R12*1), zb, z1; \
	VFMADD231PD.BCST (SI)(R12*2), zb, z2; \
	VFMADD231PD.BCST (SI)(R13*1), zb, z3; \
	ADDQ R8, SI

// z0 = (z0+z2) + (z1+z3): the phase reduction of one accumulator.
#define FINISH(z0, z1, z2, z3) \
	VADDPD z2, z0, z0; \
	VADDPD z3, z1, z1; \
	VADDPD z1, z0, z0

// func gemmTileAVX512(a, b, c *float64, keep *uint8, ars, aks, ldb, ldc, rows, cols, k4, tail, add int, ph *float64, mode int)
//
// 4 rows × 8 columns per micro-tile, one 4-row group: Z0-Z15 hold the
// four phases of the four row vectors (phase q in Z4q..Z4q+3), Z16-Z19
// the B rows of one phase round. Every B vector feeds four FMAs, so a
// strip streamed from L2 needs 16 bytes per FMA. Column strips are the
// outer loop: one strip of B serves every row block. DI = i, R9 = j.
TEXT ·gemmTileAVX512(SB), NOSPLIT, $0-120
	MOVQ aks+40(FP), R8
	SHLQ $3, R8
	MOVQ ldb+48(FP), R10
	SHLQ $3, R10
	LEAQ (R10)(R10*2), R11
	MOVQ ars+32(FP), R12
	SHLQ $3, R12
	LEAQ (R12)(R12*2), R13
	XORQ R9, R9

strip512:
	MOVQ    cols+72(FP), CX
	SUBQ    R9, CX
	MOVQ    $8, AX
	CMPQ    CX, AX
	CMOVQGT AX, CX
	MOVQ    $1, AX
	SHLQ    CX, AX
	DECQ    AX
	KMOVW   AX, K1
	XORQ    DI, DI

row512:
	MOVQ  DI, SI
	IMULQ R12, SI
	ADDQ  a+0(FP), SI
	MOVQ  b+8(FP), BX
	LEAQ  (BX)(R9*8), BX
	MOVQ  ldc+56(FP), DX
	IMULQ DI, DX
	ADDQ  R9, DX
	SHLQ  $3, DX
	ADDQ  c+16(FP), DX

	// Phases start at +0, or (mode bit 0) from ph + i/4 KiB.
	MOVQ  mode+112(FP), AX
	TESTQ $1, AX
	JNZ   loadph512
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15
	JMP    phready512

loadph512:
	MOVQ    DI, AX
	SHLQ    $8, AX
	ADDQ    ph+104(FP), AX
	VMOVUPD 0(AX), Z0
	VMOVUPD 64(AX), Z1
	VMOVUPD 128(AX), Z2
	VMOVUPD 192(AX), Z3
	VMOVUPD 256(AX), Z4
	VMOVUPD 320(AX), Z5
	VMOVUPD 384(AX), Z6
	VMOVUPD 448(AX), Z7
	VMOVUPD 512(AX), Z8
	VMOVUPD 576(AX), Z9
	VMOVUPD 640(AX), Z10
	VMOVUPD 704(AX), Z11
	VMOVUPD 768(AX), Z12
	VMOVUPD 832(AX), Z13
	VMOVUPD 896(AX), Z14
	VMOVUPD 960(AX), Z15

phready512:
	MOVQ k4+80(FP), CX

loop512:
	STEP512((BX), Z16, Z0, Z1, Z2, Z3)
	STEP512((BX)(R10*1), Z17, Z4, Z5, Z6, Z7)
	STEP512((BX)(R10*2), Z18, Z8, Z9, Z10, Z11)
	STEP512((BX)(R11*1), Z19, Z12, Z13, Z14, Z15)
	LEAQ (BX)(R10*4), BX
	SUBQ $4, CX
	JNZ  loop512

	// Mode bit 1: park the phases for the next k block.
	MOVQ  mode+112(FP), AX
	TESTQ $2, AX
	JZ    finish512
	MOVQ    DI, AX
	SHLQ    $8, AX
	ADDQ    ph+104(FP), AX
	VMOVUPD Z0, 0(AX)
	VMOVUPD Z1, 64(AX)
	VMOVUPD Z2, 128(AX)
	VMOVUPD Z3, 192(AX)
	VMOVUPD Z4, 256(AX)
	VMOVUPD Z5, 320(AX)
	VMOVUPD Z6, 384(AX)
	VMOVUPD Z7, 448(AX)
	VMOVUPD Z8, 512(AX)
	VMOVUPD Z9, 576(AX)
	VMOVUPD Z10, 640(AX)
	VMOVUPD Z11, 704(AX)
	VMOVUPD Z12, 768(AX)
	VMOVUPD Z13, 832(AX)
	VMOVUPD Z14, 896(AX)
	VMOVUPD Z15, 960(AX)
	JMP     next512

finish512:
	FINISH(Z0, Z4, Z8, Z12)
	FINISH(Z1, Z5, Z9, Z13)
	FINISH(Z2, Z6, Z10, Z14)
	FINISH(Z3, Z7, Z11, Z15)

	// Tail chains s in Z4-Z7 under the block's one keep byte.
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	MOVQ   tail+88(FP), CX
	TESTQ  CX, CX
	JZ     tdone512
	MOVQ   DI, AX
	SHRQ   $2, AX
	ADDQ   keep+24(FP), AX
	MOVBLZX (AX), AX

tloop512:
	TESTQ $1, AX
	JZ    tnext512
	VMOVUPD.Z   (BX), K1, Z16
	VMULPD.BCST (SI), Z16, Z17
	VADDPD      Z17, Z4, Z4
	VMULPD.BCST (SI)(R12*1), Z16, Z18
	VADDPD      Z18, Z5, Z5
	VMULPD.BCST (SI)(R12*2), Z16, Z19
	VADDPD      Z19, Z6, Z6
	VMULPD.BCST (SI)(R13*1), Z16, Z20
	VADDPD      Z20, Z7, Z7

tnext512:
	SHRQ $1, AX
	ADDQ R10, BX
	ADDQ R8, SI
	DECQ CX
	JNZ  tloop512

tdone512:
	VADDPD Z4, Z0, Z0
	VADDPD Z5, Z1, Z1
	VADDPD Z6, Z2, Z2
	VADDPD Z7, Z3, Z3

	MOVQ  ldc+56(FP), CX
	SHLQ  $3, CX
	LEAQ  (DX)(CX*2), AX
	MOVQ  add+96(FP), SI
	TESTQ SI, SI
	JZ    store512
	VMOVUPD.Z (DX), K1, Z16
	VADDPD    Z16, Z0, Z0
	VMOVUPD.Z (DX)(CX*1), K1, Z17
	VADDPD    Z17, Z1, Z1
	VMOVUPD.Z (AX), K1, Z18
	VADDPD    Z18, Z2, Z2
	VMOVUPD.Z (AX)(CX*1), K1, Z19
	VADDPD    Z19, Z3, Z3

store512:
	VMOVUPD Z0, K1, (DX)
	VMOVUPD Z1, K1, (DX)(CX*1)
	VMOVUPD Z2, K1, (AX)
	VMOVUPD Z3, K1, (AX)(CX*1)

next512:
	ADDQ $4, DI
	CMPQ DI, rows+64(FP)
	JLT  row512
	ADDQ $8, R9
	CMPQ R9, cols+72(FP)
	JLT  strip512
	VZEROUPPER
	RET

// Lane masks for a partial AVX2 strip: the 32 bytes at offset
// (4-nr)*8 enable the first nr lanes.
DATA gemmMaskTab<>+0(SB)/8, $-1
DATA gemmMaskTab<>+8(SB)/8, $-1
DATA gemmMaskTab<>+16(SB)/8, $-1
DATA gemmMaskTab<>+24(SB)/8, $-1
DATA gemmMaskTab<>+32(SB)/8, $0
DATA gemmMaskTab<>+40(SB)/8, $0
DATA gemmMaskTab<>+48(SB)/8, $0
DATA gemmMaskTab<>+56(SB)/8, $0
GLOBL gemmMaskTab<>(SB), RODATA|NOPTR, $64

// One k step of the 3×4 AVX2 tile, given the B row in Y12: A(r..r+2,p)
// broadcast in turn, three FMAs into the accumulators of phase p%4.
#define STEP256(a0, a1, a2, y0, y1, y2) \
	VBROADCASTSD a0, Y13; \
	VFMADD231PD  Y12, Y13, y0; \
	VBROADCASTSD a1, Y14; \
	VFMADD231PD  Y12, Y14, y1; \
	VBROADCASTSD a2, Y13; \
	VFMADD231PD  Y12, Y13, y2

// The four k steps of one phase round, B loaded by the given instruction
// form (plain for full strips, masked by Y15 for the last partial one).
#define ROUND256F \
	VMOVUPD (BX), Y12; \
	STEP256((SI), (DI), (AX), Y0, Y1, Y2); \
	VMOVUPD (BX)(R10*1), Y12; \
	STEP256((SI)(R8*1), (DI)(R8*1), (AX)(R8*1), Y3, Y4, Y5); \
	VMOVUPD (BX)(R10*2), Y12; \
	STEP256((SI)(R8*2), (DI)(R8*2), (AX)(R8*2), Y6, Y7, Y8); \
	VMOVUPD (BX)(R11*1), Y12; \
	STEP256((SI)(R9*1), (DI)(R9*1), (AX)(R9*1), Y9, Y10, Y11)

#define ROUND256M \
	VMASKMOVPD (BX), Y15, Y12; \
	STEP256((SI), (DI), (AX), Y0, Y1, Y2); \
	VMASKMOVPD (BX)(R10*1), Y15, Y12; \
	STEP256((SI)(R8*1), (DI)(R8*1), (AX)(R8*1), Y3, Y4, Y5); \
	VMASKMOVPD (BX)(R10*2), Y15, Y12; \
	STEP256((SI)(R8*2), (DI)(R8*2), (AX)(R8*2), Y6, Y7, Y8); \
	VMASKMOVPD (BX)(R11*1), Y15, Y12; \
	STEP256((SI)(R9*1), (DI)(R9*1), (AX)(R9*1), Y9, Y10, Y11)

// func gemmTileAVX2(a, b, c *float64, keep *uint8, ars, aks, ldb, ldc, rows, cols, k4, tail, add int, ph *float64, mode int)
//
// 3 rows × 4 columns per micro-tile: Y0-Y11 hold the four phases of the
// three row vectors (phase q in Y3q..Y3q+2), Y12 the B row, Y13-Y14 the
// broadcast A values and Y15 the column mask. When rows%3 != 0 the last
// block repeats row 0's A pointer for its missing rows and stores only
// the real ones.
TEXT ·gemmTileAVX2(SB), NOSPLIT, $0-120
	MOVQ aks+40(FP), R8
	SHLQ $3, R8
	MOVQ ldb+48(FP), R10
	SHLQ $3, R10
	XORQ R12, R12

strip256:
	MOVQ    cols+72(FP), CX
	SUBQ    R12, CX
	MOVQ    $4, DX
	CMPQ    CX, DX
	CMOVQGT DX, CX
	SUBQ    CX, DX
	LEAQ    gemmMaskTab<>(SB), SI
	VMOVUPD (SI)(DX*8), Y15
	XORQ    R13, R13

row256:
	LEAQ  (R8)(R8*2), R9
	LEAQ  (R10)(R10*2), R11
	MOVQ  ars+32(FP), SI
	IMULQ R13, SI
	SHLQ  $3, SI
	ADDQ  a+0(FP), SI
	MOVQ  ars+32(FP), CX
	SHLQ  $3, CX
	MOVQ  rows+64(FP), DX
	SUBQ  R13, DX
	MOVQ  SI, DI
	MOVQ  SI, AX
	CMPQ  DX, $2
	JLT   rowsset256
	ADDQ  CX, DI
	CMPQ  DX, $3
	JLT   rowsset256
	LEAQ  (DI)(CX*1), AX

rowsset256:
	MOVQ  b+8(FP), BX
	LEAQ  (BX)(R12*8), BX
	MOVQ  ldc+56(FP), DX
	IMULQ R13, DX
	ADDQ  R12, DX
	SHLQ  $3, DX
	ADDQ  c+16(FP), DX

	// Phases start at +0, or (mode bit 0) from ph + i/3 * 384 bytes.
	MOVQ  mode+112(FP), CX
	TESTQ $1, CX
	JNZ   loadph256
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	JMP    phready256

loadph256:
	MOVQ    R13, CX
	SHLQ    $7, CX
	ADDQ    ph+104(FP), CX
	VMOVUPD 0(CX), Y0
	VMOVUPD 32(CX), Y1
	VMOVUPD 64(CX), Y2
	VMOVUPD 96(CX), Y3
	VMOVUPD 128(CX), Y4
	VMOVUPD 160(CX), Y5
	VMOVUPD 192(CX), Y6
	VMOVUPD 224(CX), Y7
	VMOVUPD 256(CX), Y8
	VMOVUPD 288(CX), Y9
	VMOVUPD 320(CX), Y10
	VMOVUPD 352(CX), Y11

phready256:
	// Full strips load B plainly; the last partial one masks it.
	MOVQ cols+72(FP), CX
	SUBQ R12, CX
	CMPQ CX, $4
	MOVQ k4+80(FP), CX
	JLT  loopM256

loopF256:
	ROUND256F
	LEAQ (BX)(R10*4), BX
	LEAQ (SI)(R8*4), SI
	LEAQ (DI)(R8*4), DI
	LEAQ (AX)(R8*4), AX
	SUBQ $4, CX
	JNZ  loopF256
	JMP  finish256

loopM256:
	ROUND256M
	LEAQ (BX)(R10*4), BX
	LEAQ (SI)(R8*4), SI
	LEAQ (DI)(R8*4), DI
	LEAQ (AX)(R8*4), AX
	SUBQ $4, CX
	JNZ  loopM256

finish256:
	// Mode bit 1: park the phases for the next k block.
	MOVQ  mode+112(FP), CX
	TESTQ $2, CX
	JZ    reduce256
	MOVQ    R13, CX
	SHLQ    $7, CX
	ADDQ    ph+104(FP), CX
	VMOVUPD Y0, 0(CX)
	VMOVUPD Y1, 32(CX)
	VMOVUPD Y2, 64(CX)
	VMOVUPD Y3, 96(CX)
	VMOVUPD Y4, 128(CX)
	VMOVUPD Y5, 160(CX)
	VMOVUPD Y6, 192(CX)
	VMOVUPD Y7, 224(CX)
	VMOVUPD Y8, 256(CX)
	VMOVUPD Y9, 288(CX)
	VMOVUPD Y10, 320(CX)
	VMOVUPD Y11, 352(CX)
	JMP     next256

reduce256:
	FINISH(Y0, Y3, Y6, Y9)
	FINISH(Y1, Y4, Y7, Y10)
	FINISH(Y2, Y5, Y8, Y11)

	// Tail chains s in Y3-Y5, term t = CX.
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	MOVQ   keep+24(FP), R9
	XORQ   CX, CX
	CMPQ   CX, tail+88(FP)
	JGE    tdone256

tloop256:
	VMASKMOVPD (BX), Y15, Y12
	MOVQ    R13, R11
	SHRQ    $2, R11
	MOVBLZX (R9)(R11*1), R11
	BTQ     CX, R11
	JCC     tskip0
	VBROADCASTSD (SI), Y13
	VMULPD  Y12, Y13, Y14
	VADDPD  Y14, Y3, Y3

tskip0:
	LEAQ    1(R13), R11
	SHRQ    $2, R11
	MOVBLZX (R9)(R11*1), R11
	BTQ     CX, R11
	JCC     tskip1
	VBROADCASTSD (DI), Y13
	VMULPD  Y12, Y13, Y14
	VADDPD  Y14, Y4, Y4

tskip1:
	LEAQ    2(R13), R11
	SHRQ    $2, R11
	MOVBLZX (R9)(R11*1), R11
	BTQ     CX, R11
	JCC     tskip2
	VBROADCASTSD (AX), Y13
	VMULPD  Y12, Y13, Y14
	VADDPD  Y14, Y5, Y5

tskip2:
	ADDQ R10, BX
	ADDQ R8, SI
	ADDQ R8, DI
	ADDQ R8, AX
	INCQ CX
	CMPQ CX, tail+88(FP)
	JLT  tloop256

tdone256:
	VADDPD Y3, Y0, Y0
	VADDPD Y4, Y1, Y1
	VADDPD Y5, Y2, Y2

	// Store the real rows (R9 = rows left, ≥ 1) of the block.
	MOVQ ldc+56(FP), CX
	SHLQ $3, CX
	MOVQ rows+64(FP), R9
	SUBQ R13, R9
	MOVQ add+96(FP), SI
	MOVQ cols+72(FP), R11
	SUBQ R12, R11
	CMPQ R11, $4
	JLT  storeM256

	TESTQ SI, SI
	JZ    2(PC)
	VADDPD (DX), Y0, Y0
	VMOVUPD Y0, (DX)
	CMPQ  R9, $2
	JLT   next256
	TESTQ SI, SI
	JZ    2(PC)
	VADDPD (DX)(CX*1), Y1, Y1
	VMOVUPD Y1, (DX)(CX*1)
	CMPQ  R9, $3
	JLT   next256
	TESTQ SI, SI
	JZ    2(PC)
	VADDPD (DX)(CX*2), Y2, Y2
	VMOVUPD Y2, (DX)(CX*2)
	JMP   next256

storeM256:
	TESTQ SI, SI
	JZ    3(PC)
	VMASKMOVPD (DX), Y15, Y12
	VADDPD Y12, Y0, Y0
	VMASKMOVPD Y0, Y15, (DX)
	CMPQ  R9, $2
	JLT   next256
	TESTQ SI, SI
	JZ    3(PC)
	VMASKMOVPD (DX)(CX*1), Y15, Y12
	VADDPD Y12, Y1, Y1
	VMASKMOVPD Y1, Y15, (DX)(CX*1)
	CMPQ  R9, $3
	JLT   next256
	TESTQ SI, SI
	JZ    3(PC)
	VMASKMOVPD (DX)(CX*2), Y15, Y12
	VADDPD Y12, Y2, Y2
	VMASKMOVPD Y2, Y15, (DX)(CX*2)

next256:
	ADDQ $3, R13
	CMPQ R13, rows+64(FP)
	JLT  row256
	ADDQ $4, R12
	CMPQ R12, cols+72(FP)
	JLT  strip256
	VZEROUPPER
	RET

// func packStripAVX512(dst, src *float64, ldb, k, cols int)
//
// Copies the k×cols strip at src (row stride ldb, cols <= 8) into dst as
// k rows of 8, zeroing the lanes past cols. dst is 64-byte aligned, so
// the tile kernel's B loads from it never split a cache line.
TEXT ·packStripAVX512(SB), NOSPLIT, $0-40
	MOVQ    dst+0(FP), DI
	MOVQ    src+8(FP), SI
	MOVQ    ldb+16(FP), R8
	SHLQ    $3, R8
	MOVQ    k+24(FP), DX
	MOVQ    cols+32(FP), CX
	MOVQ    $8, AX
	CMPQ    CX, AX
	CMOVQGT AX, CX
	MOVQ    $1, AX
	SHLQ    CX, AX
	DECQ    AX
	KMOVW   AX, K1

pack512:
	VMOVUPD.Z (SI), K1, Z0
	VMOVUPD   Z0, (DI)
	ADDQ      R8, SI
	ADDQ      $64, DI
	DECQ      DX
	JNZ       pack512
	VZEROUPPER
	RET

// func packStripAVX2(dst, src *float64, ldb, k, cols int)
//
// packStripAVX512 for 4-column strips: k rows of 4, lanes past cols
// zeroed, dst 32-byte aligned.
TEXT ·packStripAVX2(SB), NOSPLIT, $0-40
	MOVQ    dst+0(FP), DI
	MOVQ    src+8(FP), SI
	MOVQ    ldb+16(FP), R8
	SHLQ    $3, R8
	MOVQ    k+24(FP), DX
	MOVQ    cols+32(FP), CX
	MOVQ    $4, AX
	CMPQ    CX, AX
	CMOVQGT AX, CX
	SUBQ    CX, AX
	LEAQ    gemmMaskTab<>(SB), BX
	VMOVUPD (BX)(AX*8), Y15

pack256:
	VMASKMOVPD (SI), Y15, Y0
	VMOVUPD    Y0, (DI)
	ADDQ       R8, SI
	ADDQ       $32, DI
	DECQ       DX
	JNZ        pack256
	VZEROUPPER
	RET

// func packStripTAVX512(dst, src *float64, idx *int64, k, cols int)
//
// The transposing packer for GemmTransB's n-major B: dst[p*8+r] =
// src[idx[r]+p] for p < k and r < cols (idx[r] is the offset of B row
// j+r), one gather per k row; lanes past cols are zero.
TEXT ·packStripTAVX512(SB), NOSPLIT, $0-40
	MOVQ      dst+0(FP), DI
	MOVQ      src+8(FP), SI
	MOVQ      idx+16(FP), AX
	VMOVDQU64 (AX), Z1
	MOVQ      k+24(FP), DX
	MOVQ      cols+32(FP), CX
	MOVQ      $8, AX
	CMPQ      CX, AX
	CMOVQGT   AX, CX
	MOVQ      $1, R8
	SHLQ      CX, R8
	DECQ      R8

gatherT512:
	KMOVW      R8, K1
	VPXORQ     Z0, Z0, Z0
	VGATHERQPD (SI)(Z1*8), K1, Z0
	VMOVUPD    Z0, (DI)
	ADDQ       $8, SI
	ADDQ       $64, DI
	DECQ       DX
	JNZ        gatherT512
	VZEROUPPER
	RET

// func packStripTAVX2(dst, src *float64, idx *int64, k, cols int)
//
// packStripTAVX512 for 4-column strips.
TEXT ·packStripTAVX2(SB), NOSPLIT, $0-40
	MOVQ    dst+0(FP), DI
	MOVQ    src+8(FP), SI
	MOVQ    idx+16(FP), AX
	VMOVDQU (AX), Y1
	MOVQ    k+24(FP), DX
	MOVQ    cols+32(FP), CX
	MOVQ    $4, AX
	CMPQ    CX, AX
	CMOVQGT AX, CX
	SUBQ    CX, AX
	LEAQ    gemmMaskTab<>(SB), BX
	VMOVDQU (BX)(AX*8), Y3

gatherT256:
	VMOVDQU    Y3, Y2
	VXORPD     Y0, Y0, Y0
	VGATHERQPD Y2, (SI)(Y1*8), Y0
	VMOVUPD    Y0, (DI)
	ADDQ       $8, SI
	ADDQ       $32, DI
	DECQ       DX
	JNZ        gatherT256
	VZEROUPPER
	RET
