#include "textflag.h"

// MASKROW adds the sign-multiplied accumulators lo and hi (lanes 0–3 and
// 4–7 of one row of a 4×8 tile) into the row's entries at mlo and mhi
// under the mask bits in the low byte of AX: bit c selects lane c. Each
// half's lane mask is the broadcast bits ANDed with the lanes' own bits
// (laneBits) and compared equal to them; masked-out lanes load as zero and
// are not stored.
#define MASKROW(mlo, mhi, lo, hi) \
	VMOVQ AX, X15; \
	VPBROADCASTQ X15, Y15; \
	VPAND ·laneBits+0(SB), Y15, Y12; \
	VPCMPEQQ ·laneBits+0(SB), Y12, Y12; \
	VPAND ·laneBits+32(SB), Y15, Y13; \
	VPCMPEQQ ·laneBits+32(SB), Y13, Y13; \
	VMASKMOVPD mlo, Y12, Y8; \
	VMASKMOVPD mhi, Y13, Y9; \
	VADDPD Y8, lo, lo; \
	VADDPD Y9, hi, hi; \
	VMASKMOVPD lo, Y12, mlo; \
	VMASKMOVPD hi, Y13, mhi

// MASKROWZ is MASKROW on the 512-bit unit: the low 16 bits of AX are the
// opmasks of the row's two halves (K1 lanes 0–7, K2 lanes 8–15).
#define MASKROWZ(mlo, mhi, lo, hi) \
	KMOVW AX, K1; \
	KSHIFTRW $8, K1, K2; \
	VMOVUPD.Z mlo, K1, Z8; \
	VMOVUPD.Z mhi, K2, Z9; \
	VADDPD Z8, lo, lo; \
	VADDPD Z9, hi, hi; \
	VMOVUPD lo, K1, mlo; \
	VMOVUPD hi, K2, mhi

// func tiles4x8(out *float64, ldo int, a *float64, lda int, panel *float64, m, nt int, sign float64, masks uint64)
//
// For t in [0, nt), r in [0, 4), c in [0, 8):
//
//	out[r*ldo + 8t + c] += sign * Σₖ a[r*lda + k] · panel[(t*m + k)*8 + c]
//
// with k ascending from +0 and each product added by a fused multiply-add
// (VFMADD231PD, one rounding per k), one ymm lane per entry of out — so
// each lane performs, in order, exactly the scalar operations of
// `s = math.FMA(x, y, s)` and `e += sign*s`. The epilogue multiplies by ±1,
// which is exact, then adds. m ≥ 1, nt ≥ 1.
//
// Only the entries whose bit 16r + c of masks is set are read from out and
// stored back: the others are loaded as zeros and not written (VMASKMOVPD,
// which never faults on a lane it leaves out), so a tile may straddle the
// diagonal or hang past the end of out's view. masks = ^0 stores every
// entry with plain loads and stores.
//
// Y0–Y7 accumulate (row r in Y(2r), Y(2r+1)), Y8–Y9 hold the panel's eight
// k-th entries, Y10–Y11 a broadcast entry of a, Y14 sign in every lane; in
// a masked epilogue Y8–Y9 hold out's entries, Y12–Y13 a row's lane masks
// and Y15 its mask bits.
TEXT ·tiles4x8(SB), NOSPLIT, $0-72
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
	VFMADD231PD Y8, Y10, Y0
	VFMADD231PD Y9, Y10, Y1
	VFMADD231PD Y8, Y11, Y2
	VFMADD231PD Y9, Y11, Y3
	VBROADCASTSD (R11)(AX*8), Y10
	VBROADCASTSD (R12)(AX*8), Y11
	VFMADD231PD Y8, Y10, Y4
	VFMADD231PD Y9, Y10, Y5
	VFMADD231PD Y8, Y11, Y6
	VFMADD231PD Y9, Y11, Y7
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
	MOVQ masks+64(FP), AX
	CMPQ AX, $-1
	JNE masked
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
	JMP stored

masked:
	MASKROW(0(DI), 32(DI), Y0, Y1)
	SHRQ $16, AX
	MASKROW(0(DI)(R8*1), 32(DI)(R8*1), Y2, Y3)
	SHRQ $16, AX
	MASKROW(0(DI)(R8*2), 32(DI)(R8*2), Y4, Y5)
	SHRQ $16, AX
	MASKROW(0(DI)(R13*1), 32(DI)(R13*1), Y6, Y7)

stored:
	ADDQ $64, DI
	DECQ DX
	JNZ tile

	VZEROUPPER
	RET

// func tiles4x16z(out *float64, ldo int, a *float64, lda int, panel *float64, m, np int, sign float64, masks uint64)
//
// tiles4x8 on the 512-bit unit: np consecutive pairs of 4×8 tiles, pair p
// being tiles 2p and 2p+1 of the panel, i.e. for p in [0, np), r in [0, 4),
// c in [0, 16):
//
//	out[r*ldo + 16p + c] += sign * Σₖ a[r*lda + k] · panel[((2p + c/8)*m + k)*8 + c%8]
//
// with the same per-lane operations in the same order as tiles4x8 — k
// ascending from +0, one VFMADD231PD per k, the epilogue a multiply by ±1
// then an add — one zmm lane per entry of out, so either kernel leaves the
// same bits. m ≥ 1, np ≥ 1. Only AVX512F instructions on zmm registers.
//
// masks is tiles4x8's, sixteen lanes a row: only the entries whose bit
// 16r + c is set are read from out (zeroing-masked loads, which never
// fault on a lane they leave out) and stored back (masked stores); ^0
// stores every entry with plain loads and stores.
//
// Z0–Z7 accumulate (row r in Z(2r), Z(2r+1)), Z8–Z9 hold the k-th eight
// entries of the two tiles (BX and BX + m·64), Z10–Z11 a broadcast entry of
// a, Z14 sign in every lane; in a masked epilogue Z8–Z9 hold out's entries
// and K1–K2 a row's lane masks.
TEXT ·tiles4x16z(SB), NOSPLIT, $0-72
	MOVQ out+0(FP), DI
	MOVQ ldo+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ lda+24(FP), R9
	MOVQ panel+32(FP), BX
	MOVQ m+40(FP), CX
	MOVQ np+48(FP), DX
	VBROADCASTSD sign+56(FP), Z14
	SHLQ $3, R8               // row strides in bytes
	SHLQ $3, R9
	LEAQ (R8)(R8*2), R13      // 3·ldo
	LEAQ (SI)(R9*1), R10      // rows 1–3 of a
	LEAQ (SI)(R9*2), R11
	LEAQ (R11)(R9*1), R12
	MOVQ CX, R15
	SHLQ $6, R15              // m·64, the bytes of one panel tile

pair:
	VXORPD Z0, Z0, Z0
	VXORPD Z1, Z1, Z1
	VXORPD Z2, Z2, Z2
	VXORPD Z3, Z3, Z3
	VXORPD Z4, Z4, Z4
	VXORPD Z5, Z5, Z5
	VXORPD Z6, Z6, Z6
	VXORPD Z7, Z7, Z7
	XORQ AX, AX

dotz:
	VMOVUPD (BX), Z8
	VMOVUPD (BX)(R15*1), Z9
	VBROADCASTSD (SI)(AX*8), Z10
	VBROADCASTSD (R10)(AX*8), Z11
	VFMADD231PD Z8, Z10, Z0
	VFMADD231PD Z9, Z10, Z1
	VFMADD231PD Z8, Z11, Z2
	VFMADD231PD Z9, Z11, Z3
	VBROADCASTSD (R11)(AX*8), Z10
	VBROADCASTSD (R12)(AX*8), Z11
	VFMADD231PD Z8, Z10, Z4
	VFMADD231PD Z9, Z10, Z5
	VFMADD231PD Z8, Z11, Z6
	VFMADD231PD Z9, Z11, Z7
	ADDQ $64, BX
	INCQ AX
	CMPQ AX, CX
	JLT dotz

	// out ← out + sign·acc: multiply by ±1, then add.
	VMULPD Z14, Z0, Z0
	VMULPD Z14, Z1, Z1
	VMULPD Z14, Z2, Z2
	VMULPD Z14, Z3, Z3
	VMULPD Z14, Z4, Z4
	VMULPD Z14, Z5, Z5
	VMULPD Z14, Z6, Z6
	VMULPD Z14, Z7, Z7
	MOVQ masks+64(FP), AX
	CMPQ AX, $-1
	JNE maskedz
	VADDPD (DI), Z0, Z0
	VADDPD 64(DI), Z1, Z1
	VADDPD (DI)(R8*1), Z2, Z2
	VADDPD 64(DI)(R8*1), Z3, Z3
	VADDPD (DI)(R8*2), Z4, Z4
	VADDPD 64(DI)(R8*2), Z5, Z5
	VADDPD (DI)(R13*1), Z6, Z6
	VADDPD 64(DI)(R13*1), Z7, Z7
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, (DI)(R8*1)
	VMOVUPD Z3, 64(DI)(R8*1)
	VMOVUPD Z4, (DI)(R8*2)
	VMOVUPD Z5, 64(DI)(R8*2)
	VMOVUPD Z6, (DI)(R13*1)
	VMOVUPD Z7, 64(DI)(R13*1)
	JMP storedz

maskedz:
	MASKROWZ(0(DI), 64(DI), Z0, Z1)
	SHRQ $16, AX
	MASKROWZ(0(DI)(R8*1), 64(DI)(R8*1), Z2, Z3)
	SHRQ $16, AX
	MASKROWZ(0(DI)(R8*2), 64(DI)(R8*2), Z4, Z5)
	SHRQ $16, AX
	MASKROWZ(0(DI)(R13*1), 64(DI)(R13*1), Z6, Z7)

storedz:
	ADDQ $128, DI
	ADDQ R15, BX              // BX ended at tile 2p+1; skip it to tile 2p+2
	DECQ DX
	JNZ pair

	VZEROUPPER
	RET

// TRANSPOSE4 transposes the 4×4 block held one row per register in r0–r3,
// leaving column c of the block in register c; t0–t3 are clobbered.
#define TRANSPOSE4(r0, r1, r2, r3, t0, t1, t2, t3) \
	VUNPCKLPD r1, r0, t0; \
	VUNPCKHPD r1, r0, t1; \
	VUNPCKLPD r3, r2, t2; \
	VUNPCKHPD r3, r2, t3; \
	VPERM2F128 $0x20, t2, t0, r0; \
	VPERM2F128 $0x20, t3, t1, r1; \
	VPERM2F128 $0x31, t2, t0, r2; \
	VPERM2F128 $0x31, t3, t1, r3

// func solveChol16(x *float64, ldx int, l *float64, ldl int, lt *float64, m int, work *float64)
//
// Solves (L·Lᵀ)·xᵣ = bᵣ in place for the 16 rows r of x (row stride ldx),
// each an independent right-hand side of length m ≥ 1: forward against the
// rows of L (stride ldl), backward against lt, the m×m row-major transpose
// of L. One ymm lane per row, four accumulators of four rows. Each step is
// a broadcast entry of L, VMULPD, then VSUBPD, and each unknown ends with a
// VDIVPD by the diagonal — never a fused multiply-add — so every lane
// performs, in order, exactly the scalar operations of `s -= v*x[k]` and
// `x[i] = s/d` that solveChol4 performs for its row.
//
// The rows are transposed through work — 16·⌈m/4⌉·4 float64s, column j of
// the 16 rows at work[16j:16j+16] — four columns at a time by 4×4 register
// transposes, the last partial group with masked loads and stores, so no
// word of x outside the 16×m block is read or written.
//
// Registers: DI x, R8 ldx in bytes, SI L, R9 ldl in bytes, BX lt, CX m,
// DX work, Y0–Y3 accumulators, Y4 a broadcast entry, Y5–Y8 products and
// transpose temporaries, Y15 the column mask of a partial group.
TEXT ·solveChol16(SB), NOSPLIT, $0-56
	MOVQ x+0(FP), DI
	MOVQ ldx+8(FP), R8
	MOVQ l+16(FP), SI
	MOVQ ldl+24(FP), R9
	MOVQ lt+32(FP), BX
	MOVQ m+40(FP), CX
	MOVQ work+48(FP), DX
	SHLQ $3, R8
	SHLQ $3, R9

	// Pack: work[16j + r] = x[r][j].
	XORQ AX, AX               // j, first column of the group
	MOVQ DX, R12              // &work[16j]
pack:
	MOVQ CX, R10
	SUBQ AX, R10              // columns left
	CMPQ R10, $4
	JLT packtail
	MOVQ DI, R11
	LEAQ (R11)(AX*8), R11     // &x[0][j]
	MOVQ $4, R13
packgroup:
	VMOVUPD (R11), Y0
	ADDQ R8, R11
	VMOVUPD (R11), Y1
	ADDQ R8, R11
	VMOVUPD (R11), Y2
	ADDQ R8, R11
	VMOVUPD (R11), Y3
	ADDQ R8, R11
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y5, Y6, Y7, Y8)
	VMOVUPD Y0, (R12)
	VMOVUPD Y1, 128(R12)
	VMOVUPD Y2, 256(R12)
	VMOVUPD Y3, 384(R12)
	ADDQ $32, R12
	DECQ R13
	JNZ packgroup
	ADDQ $384, R12            // 4 columns of 128 bytes, less the 4·32 stepped
	ADDQ $4, AX
	CMPQ AX, CX
	JLT pack
	JMP forward

packtail:
	// 1–3 columns left: load them under a mask, zeros in the other lanes.
	LEAQ ·laneMask+32(SB), R11
	SHLQ $3, R10
	SUBQ R10, R11
	VMOVUPD (R11), Y15
	MOVQ DI, R11
	LEAQ (R11)(AX*8), R11
	MOVQ $4, R13
packtailgroup:
	VMASKMOVPD (R11), Y15, Y0
	ADDQ R8, R11
	VMASKMOVPD (R11), Y15, Y1
	ADDQ R8, R11
	VMASKMOVPD (R11), Y15, Y2
	ADDQ R8, R11
	VMASKMOVPD (R11), Y15, Y3
	ADDQ R8, R11
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y5, Y6, Y7, Y8)
	VMOVUPD Y0, (R12)
	VMOVUPD Y1, 128(R12)
	VMOVUPD Y2, 256(R12)
	VMOVUPD Y3, 384(R12)
	ADDQ $32, R12
	DECQ R13
	JNZ packtailgroup

forward:
	// For i = 0…m−1: w[i] = (w[i] − Σ_{k<i} L[i][k]·w[k]) / L[i][i].
	XORQ AX, AX               // i
	MOVQ DX, R12              // &work[16i]
	MOVQ SI, R11              // &L[i][0]
fwdrow:
	VMOVUPD (R12), Y0
	VMOVUPD 32(R12), Y1
	VMOVUPD 64(R12), Y2
	VMOVUPD 96(R12), Y3
	XORQ R10, R10             // k
	MOVQ DX, R13              // &work[16k]
	CMPQ R10, AX
	JGE fwddiv
fwdk:
	VBROADCASTSD (R11)(R10*8), Y4
	VMULPD (R13), Y4, Y5
	VMULPD 32(R13), Y4, Y6
	VMULPD 64(R13), Y4, Y7
	VMULPD 96(R13), Y4, Y8
	VSUBPD Y5, Y0, Y0
	VSUBPD Y6, Y1, Y1
	VSUBPD Y7, Y2, Y2
	VSUBPD Y8, Y3, Y3
	ADDQ $128, R13
	INCQ R10
	CMPQ R10, AX
	JLT fwdk
fwddiv:
	VBROADCASTSD (R11)(AX*8), Y4
	VDIVPD Y4, Y0, Y0
	VDIVPD Y4, Y1, Y1
	VDIVPD Y4, Y2, Y2
	VDIVPD Y4, Y3, Y3
	VMOVUPD Y0, (R12)
	VMOVUPD Y1, 32(R12)
	VMOVUPD Y2, 64(R12)
	VMOVUPD Y3, 96(R12)
	ADDQ $128, R12
	ADDQ R9, R11
	INCQ AX
	CMPQ AX, CX
	JLT fwdrow

	// For i = m−1…0: w[i] = (w[i] − Σ_{k>i} lt[i][k]·w[k]) / lt[i][i].
	MOVQ CX, AX
	DECQ AX                   // i
	MOVQ AX, R12
	SHLQ $7, R12
	ADDQ DX, R12              // &work[16i]
	MOVQ AX, R11
	IMULQ CX, R11
	LEAQ (BX)(R11*8), R11     // &lt[i][0]
bwdrow:
	VMOVUPD (R12), Y0
	VMOVUPD 32(R12), Y1
	VMOVUPD 64(R12), Y2
	VMOVUPD 96(R12), Y3
	LEAQ 1(AX), R10           // k
	LEAQ 128(R12), R13        // &work[16k]
	CMPQ R10, CX
	JGE bwddiv
bwdk:
	VBROADCASTSD (R11)(R10*8), Y4
	VMULPD (R13), Y4, Y5
	VMULPD 32(R13), Y4, Y6
	VMULPD 64(R13), Y4, Y7
	VMULPD 96(R13), Y4, Y8
	VSUBPD Y5, Y0, Y0
	VSUBPD Y6, Y1, Y1
	VSUBPD Y7, Y2, Y2
	VSUBPD Y8, Y3, Y3
	ADDQ $128, R13
	INCQ R10
	CMPQ R10, CX
	JLT bwdk
bwddiv:
	VBROADCASTSD (R11)(AX*8), Y4
	VDIVPD Y4, Y0, Y0
	VDIVPD Y4, Y1, Y1
	VDIVPD Y4, Y2, Y2
	VDIVPD Y4, Y3, Y3
	VMOVUPD Y0, (R12)
	VMOVUPD Y1, 32(R12)
	VMOVUPD Y2, 64(R12)
	VMOVUPD Y3, 96(R12)
	SUBQ $128, R12
	MOVQ CX, R10
	SHLQ $3, R10
	SUBQ R10, R11
	DECQ AX
	JGE bwdrow

	// Unpack: x[r][j] = work[16j + r], the inverse transposes.
	XORQ AX, AX
	MOVQ DX, R12
unpack:
	MOVQ CX, R10
	SUBQ AX, R10
	CMPQ R10, $4
	JLT unpacktail
	MOVQ DI, R11
	LEAQ (R11)(AX*8), R11
	MOVQ $4, R13
unpackgroup:
	VMOVUPD (R12), Y0
	VMOVUPD 128(R12), Y1
	VMOVUPD 256(R12), Y2
	VMOVUPD 384(R12), Y3
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y5, Y6, Y7, Y8)
	VMOVUPD Y0, (R11)
	ADDQ R8, R11
	VMOVUPD Y1, (R11)
	ADDQ R8, R11
	VMOVUPD Y2, (R11)
	ADDQ R8, R11
	VMOVUPD Y3, (R11)
	ADDQ R8, R11
	ADDQ $32, R12
	DECQ R13
	JNZ unpackgroup
	ADDQ $384, R12
	ADDQ $4, AX
	CMPQ AX, CX
	JLT unpack
	JMP done

unpacktail:
	MOVQ DI, R11
	LEAQ (R11)(AX*8), R11
	MOVQ $4, R13
unpacktailgroup:
	VMOVUPD (R12), Y0
	VMOVUPD 128(R12), Y1
	VMOVUPD 256(R12), Y2
	VMOVUPD 384(R12), Y3
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y5, Y6, Y7, Y8)
	VMASKMOVPD Y0, Y15, (R11)
	ADDQ R8, R11
	VMASKMOVPD Y1, Y15, (R11)
	ADDQ R8, R11
	VMASKMOVPD Y2, Y15, (R11)
	ADDQ R8, R11
	VMASKMOVPD Y3, Y15, (R11)
	ADDQ R8, R11
	ADDQ $32, R12
	DECQ R13
	JNZ unpacktailgroup

done:
	VZEROUPPER
	RET

// func gatherRows4(dst *float64, ld int, c *float64, ldc int, cols *int, nc int)
//
// For q in [0, nc) and r in [0, 4):
//
//	dst[q*ld + r] = c[r*ldc + cols[q]]
//
// that is, the entries of four rows of c (row stride ldc) at the columns
// cols names, stored column by column, each column's four entries one
// contiguous run at stride ld. Four columns at a time: their indices in one
// ymm register, one VGATHERQPD per row — a row of the 4×4 block — and
// TRANSPOSE4 turns the rows into columns. cols is strictly ascending, so
// four columns with cols[q+3] = cols[q]+3 are consecutive, and each row of
// their block is one VMOVUPD instead of a gather (most groups of a real
// batch: its distance rows name whole atoms, three columns each, and
// neighbouring atoms). The last 1–3 columns are gathered under a lane mask
// (their indices loaded under it, so nothing past cols[nc−1] is read) and
// only they are stored. nc ≥ 1; entries are copied, not computed, so the
// bits are the loads'.
//
// Registers: DI dst, R8 ld in bytes, R13 3·ld, SI R10 R11 R12 the four rows,
// BX cols, CX columns left, AX the group's first column, DX its span, Y8
// indices, Y9 the gather mask (cleared by each gather), Y10 the tail's lane
// mask, Y0–Y3 the block, Y4–Y7 temporaries.
TEXT ·gatherRows4(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ ld+8(FP), R8
	MOVQ c+16(FP), SI
	MOVQ ldc+24(FP), R9
	MOVQ cols+32(FP), BX
	MOVQ nc+40(FP), CX
	SHLQ $3, R8
	SHLQ $3, R9
	LEAQ (R8)(R8*2), R13
	LEAQ (SI)(R9*1), R10
	LEAQ (SI)(R9*2), R11
	LEAQ (R11)(R9*1), R12

quad:
	CMPQ CX, $4
	JLT tail
	MOVQ (BX), AX
	MOVQ 24(BX), DX
	SUBQ AX, DX
	CMPQ DX, $3
	JNE scattered
	// Four consecutive columns: each row's four entries are one load.
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD (R10)(AX*8), Y1
	VMOVUPD (R11)(AX*8), Y2
	VMOVUPD (R12)(AX*8), Y3
	JMP block
scattered:
	VMOVDQU (BX), Y8
	VPCMPEQQ Y9, Y9, Y9
	VGATHERQPD Y9, (SI)(Y8*8), Y0
	VPCMPEQQ Y9, Y9, Y9
	VGATHERQPD Y9, (R10)(Y8*8), Y1
	VPCMPEQQ Y9, Y9, Y9
	VGATHERQPD Y9, (R11)(Y8*8), Y2
	VPCMPEQQ Y9, Y9, Y9
	VGATHERQPD Y9, (R12)(Y8*8), Y3
block:
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DI)(R8*1)
	VMOVUPD Y2, (DI)(R8*2)
	VMOVUPD Y3, (DI)(R13*1)
	LEAQ (DI)(R8*4), DI
	ADDQ $32, BX
	SUBQ $4, CX
	JNZ quad
	JMP copied

tail:
	LEAQ ·laneMask+32(SB), AX
	MOVQ CX, DX
	SHLQ $3, DX
	SUBQ DX, AX
	VMOVDQU (AX), Y10
	VPMASKMOVQ (BX), Y10, Y8
	VMOVDQU Y10, Y9
	VGATHERQPD Y9, (SI)(Y8*8), Y0
	VMOVDQU Y10, Y9
	VGATHERQPD Y9, (R10)(Y8*8), Y1
	VMOVDQU Y10, Y9
	VGATHERQPD Y9, (R11)(Y8*8), Y2
	VMOVDQU Y10, Y9
	VGATHERQPD Y9, (R12)(Y8*8), Y3
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	VMOVUPD Y0, (DI)
	CMPQ CX, $2
	JLT copied
	VMOVUPD Y1, (DI)(R8*1)
	CMPQ CX, $3
	JLT copied
	VMOVUPD Y2, (DI)(R8*2)

copied:
	VZEROUPPER
	RET

// func columnSums16(work *float64, gathered *float64, ld int, rowPtr *int, pos *int, val *float64, m int, dst *float64, ldd int, groups int)
//
// Sixteen rows of a sparse-times-dense product, one ymm lane per row: for
// j in [0, m) and l in [0, 16),
//
//	work[16j + l] = Σ_{k = rowPtr[j]}^{rowPtr[j+1]−1} val[k] · gathered[pos[k]*ld + l]
//
// every lane starting at +0 (VXORPD) and taking the terms in k order, each a
// VBROADCASTSD of val[k], a VMULPD against the 16 entries at
// gathered + pos[k]·ld
// and its own VADDPD — never a fused multiply-add — so a lane performs, in
// order, exactly the scalar operations of `s := 0; s += v*x`. Then the first
// 4·groups columns of work go to the 16×(4·groups) block of dst (row
// stride ldd) by 4×4 transposes; groups = 0 stores nothing. m ≥ 1.
//
// Registers: DI work, SI gathered, R8 ld in bytes, BX &rowPtr[j], R9 pos,
// R10 val, CX columns left, R13 k, R15 rowPtr[j+1], R12 &work[16j], AX a
// column of gathered, Y0–Y3 accumulators, Y4 a broadcast entry, Y5–Y8 products.
TEXT ·columnSums16(SB), NOSPLIT, $0-80
	MOVQ work+0(FP), DI
	MOVQ gathered+8(FP), SI
	MOVQ ld+16(FP), R8
	MOVQ rowPtr+24(FP), BX
	MOVQ pos+32(FP), R9
	MOVQ val+40(FP), R10
	MOVQ m+48(FP), CX
	SHLQ $3, R8
	MOVQ (BX), R13
	MOVQ DI, R12

column:
	ADDQ $8, BX
	MOVQ (BX), R15
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	CMPQ R13, R15
	JGE summed

term:
	MOVQ (R9)(R13*8), AX
	IMULQ R8, AX
	ADDQ SI, AX
	VBROADCASTSD (R10)(R13*8), Y4
	VMULPD (AX), Y4, Y5
	VMULPD 32(AX), Y4, Y6
	VMULPD 64(AX), Y4, Y7
	VMULPD 96(AX), Y4, Y8
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3
	INCQ R13
	CMPQ R13, R15
	JLT term

summed:
	VMOVUPD Y0, (R12)
	VMOVUPD Y1, 32(R12)
	VMOVUPD Y2, 64(R12)
	VMOVUPD Y3, 96(R12)
	ADDQ $128, R12
	DECQ CX
	JNZ column

	// dst[l][j] = work[16j + l], four columns and four rows per transpose.
	MOVQ dst+56(FP), SI
	MOVQ ldd+64(FP), R8
	MOVQ groups+72(FP), CX
	TESTQ CX, CX
	JZ stored
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R13

group:
	MOVQ SI, R11              // &dst[0][4·group]
	MOVQ $4, DX               // row quads
rowquad:
	VMOVUPD (DI), Y0
	VMOVUPD 128(DI), Y1
	VMOVUPD 256(DI), Y2
	VMOVUPD 384(DI), Y3
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	VMOVUPD Y0, (R11)
	VMOVUPD Y1, (R11)(R8*1)
	VMOVUPD Y2, (R11)(R8*2)
	VMOVUPD Y3, (R11)(R13*1)
	LEAQ (R11)(R8*4), R11
	ADDQ $32, DI
	DECQ DX
	JNZ rowquad
	ADDQ $384, DI             // 4 columns of 128 bytes, less the 4·32 stepped
	ADDQ $32, SI
	DECQ CX
	JNZ group

stored:
	VZEROUPPER
	RET

// func sparseRow(dst *float64, p int, a *float64, lda int, cols *int, vals *float64, nnz int)
//
// One row of a sparse-times-dense product, one ymm lane per entry: for j in
// [0, p),
//
//	dst[j] = Σ_{k < nnz} vals[k] · a[cols[k]*lda + j]
//
// every lane starting at +0 and taking the terms in k order, VBROADCASTSD,
// VMULPD, then its own VADDPD — the scalar operations of `y[j] += v*x[j]`
// from y = 0, term by term. Sixteen entries at a time in Y0–Y3, then four at
// a time in Y0. p is a multiple of 4; nnz ≥ 1.
//
// Registers: DI dst, CX entries left, SI a at the current entries, R8 lda
// in bytes, BX cols, R9 vals, DX nnz, R10 k, AX a row of a.
TEXT ·sparseRow(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ p+8(FP), CX
	MOVQ a+16(FP), SI
	MOVQ lda+24(FP), R8
	MOVQ cols+32(FP), BX
	MOVQ vals+40(FP), R9
	MOVQ nnz+48(FP), DX
	SHLQ $3, R8

wide:
	CMPQ CX, $16
	JLT narrow
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ R10, R10
wideterm:
	MOVQ (BX)(R10*8), AX
	IMULQ R8, AX
	ADDQ SI, AX
	VBROADCASTSD (R9)(R10*8), Y4
	VMULPD (AX), Y4, Y5
	VMULPD 32(AX), Y4, Y6
	VMULPD 64(AX), Y4, Y7
	VMULPD 96(AX), Y4, Y8
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3
	INCQ R10
	CMPQ R10, DX
	JLT wideterm
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, SI
	SUBQ $16, CX
	JMP wide

narrow:
	CMPQ CX, $4
	JLT rowdone
	VXORPD Y0, Y0, Y0
	XORQ R10, R10
narrowterm:
	MOVQ (BX)(R10*8), AX
	IMULQ R8, AX
	ADDQ SI, AX
	VBROADCASTSD (R9)(R10*8), Y4
	VMULPD (AX), Y4, Y5
	VADDPD Y5, Y0, Y0
	INCQ R10
	CMPQ R10, DX
	JLT narrowterm
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	SUBQ $4, CX
	JMP narrow

rowdone:
	VZEROUPPER
	RET

// func maxMagnitude16(vs *float64, n int) uint64
//
// The largest Float64bits(vs[i]) with the sign bit cleared, over i < n, n a
// positive multiple of 16: each pattern VPAND the magnitude mask, and kept
// where VPCMPGTQ finds it above the running maximum (VBLENDVPD), in four
// accumulators of four lanes, folded at the end. With the sign cleared the
// patterns are non-negative, so the signed comparison is the unsigned one,
// and the result is the integer maximum filter.maxAbs's loop takes.
TEXT ·maxMagnitude16(SB), NOSPLIT, $0-24
	MOVQ vs+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ $0x7fffffffffffffff, AX
	VMOVQ AX, X15
	VPBROADCASTQ X15, Y15
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3

scan:
	VPAND (SI), Y15, Y4
	VPAND 32(SI), Y15, Y5
	VPAND 64(SI), Y15, Y6
	VPAND 96(SI), Y15, Y7
	VPCMPGTQ Y0, Y4, Y8
	VPCMPGTQ Y1, Y5, Y9
	VPCMPGTQ Y2, Y6, Y10
	VPCMPGTQ Y3, Y7, Y11
	VBLENDVPD Y8, Y4, Y0, Y0
	VBLENDVPD Y9, Y5, Y1, Y1
	VBLENDVPD Y10, Y6, Y2, Y2
	VBLENDVPD Y11, Y7, Y3, Y3
	ADDQ $128, SI
	SUBQ $16, CX
	JNZ scan

	VPCMPGTQ Y0, Y1, Y8
	VBLENDVPD Y8, Y1, Y0, Y0
	VPCMPGTQ Y2, Y3, Y9
	VBLENDVPD Y9, Y3, Y2, Y2
	VPCMPGTQ Y0, Y2, Y8
	VBLENDVPD Y8, Y2, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPCMPGTQ X0, X1, X8
	VBLENDVPD X8, X1, X0, X0
	VPSHUFD $0x4e, X0, X1
	VPCMPGTQ X0, X1, X8
	VBLENDVPD X8, X1, X0, X0
	VMOVQ X0, AX
	MOVQ AX, ret+16(FP)
	VZEROUPPER
	RET

// laneBits holds 1 << c in qword c: the mask bit of lane c of a 4×8 tile.
DATA ·laneBits+0(SB)/8, $1
DATA ·laneBits+8(SB)/8, $2
DATA ·laneBits+16(SB)/8, $4
DATA ·laneBits+24(SB)/8, $8
DATA ·laneBits+32(SB)/8, $16
DATA ·laneBits+40(SB)/8, $32
DATA ·laneBits+48(SB)/8, $64
DATA ·laneBits+56(SB)/8, $128
GLOBL ·laneBits(SB), RODATA|NOPTR, $64

// laneMask+32−8c is the lane mask of the first c of four lanes.
DATA ·laneMask+0(SB)/8, $-1
DATA ·laneMask+8(SB)/8, $-1
DATA ·laneMask+16(SB)/8, $-1
DATA ·laneMask+24(SB)/8, $-1
DATA ·laneMask+32(SB)/8, $0
DATA ·laneMask+40(SB)/8, $0
DATA ·laneMask+48(SB)/8, $0
DATA ·laneMask+56(SB)/8, $0
GLOBL ·laneMask(SB), RODATA|NOPTR, $64

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
