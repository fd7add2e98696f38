#include "textflag.h"

// func tiles4x8(out *float64, ldo int, a *float64, lda int, panel *float64, m, nt int, sign float64)
//
// For t in [0, nt), r in [0, 4), c in [0, 8):
//
//	out[r*ldo + 8t + c] += sign * Σₖ a[r*lda + k] · panel[(t*m + k)*8 + c]
//
// with k ascending from 0 and every product and every sum rounded on its
// own (VMULPD then VADDPD, never a fused multiply-add), one ymm lane per
// entry of out — so each lane performs, in order, exactly the scalar
// operations of `s += x*y` and `e += sign*s`. m ≥ 1, nt ≥ 1.
//
// Y0–Y7 accumulate (row r in Y(2r), Y(2r+1)), Y8–Y9 hold the panel's eight
// k-th entries, Y10–Y11 a broadcast entry of a, Y12–Y13 the products, Y14
// sign in every lane.
TEXT ·tiles4x8(SB), NOSPLIT, $0-64
	MOVQ out+0(FP), DI
	MOVQ ldo+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ lda+24(FP), R9
	MOVQ panel+32(FP), BX
	MOVQ m+40(FP), CX
	MOVQ nt+48(FP), DX
	VBROADCASTSD sign+56(FP), Y14
	SHLQ $3, R8               // row strides in bytes
	SHLQ $3, R9
	LEAQ (R8)(R8*2), R13      // 3·ldo
	LEAQ (SI)(R9*1), R10      // rows 1–3 of a
	LEAQ (SI)(R9*2), R11
	LEAQ (R11)(R9*1), R12

tile:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ AX, AX

dot:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	VBROADCASTSD (SI)(AX*8), Y10
	VBROADCASTSD (R10)(AX*8), Y11
	VMULPD Y8, Y10, Y12
	VMULPD Y9, Y10, Y13
	VADDPD Y12, Y0, Y0
	VADDPD Y13, Y1, Y1
	VMULPD Y8, Y11, Y12
	VMULPD Y9, Y11, Y13
	VADDPD Y12, Y2, Y2
	VADDPD Y13, Y3, Y3
	VBROADCASTSD (R11)(AX*8), Y10
	VBROADCASTSD (R12)(AX*8), Y11
	VMULPD Y8, Y10, Y12
	VMULPD Y9, Y10, Y13
	VADDPD Y12, Y4, Y4
	VADDPD Y13, Y5, Y5
	VMULPD Y8, Y11, Y12
	VMULPD Y9, Y11, Y13
	VADDPD Y12, Y6, Y6
	VADDPD Y13, Y7, Y7
	ADDQ $64, BX
	INCQ AX
	CMPQ AX, CX
	JLT dot

	// out ← out + sign·acc: multiply by ±1, then add.
	VMULPD Y14, Y0, Y0
	VMULPD Y14, Y1, Y1
	VMULPD Y14, Y2, Y2
	VMULPD Y14, Y3, Y3
	VMULPD Y14, Y4, Y4
	VMULPD Y14, Y5, Y5
	VMULPD Y14, Y6, Y6
	VMULPD Y14, Y7, Y7
	VADDPD (DI), Y0, Y0
	VADDPD 32(DI), Y1, Y1
	VADDPD (DI)(R8*1), Y2, Y2
	VADDPD 32(DI)(R8*1), Y3, Y3
	VADDPD (DI)(R8*2), Y4, Y4
	VADDPD 32(DI)(R8*2), Y5, Y5
	VADDPD (DI)(R13*1), Y6, Y6
	VADDPD 32(DI)(R13*1), Y7, Y7
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(R8*1)
	VMOVUPD Y3, 32(DI)(R8*1)
	VMOVUPD Y4, (DI)(R8*2)
	VMOVUPD Y5, 32(DI)(R8*2)
	VMOVUPD Y6, (DI)(R13*1)
	VMOVUPD Y7, 32(DI)(R13*1)
	ADDQ $64, DI
	DECQ DX
	JNZ tile

	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
