#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func gemm4x8AVX2(k, n int, a *float64, ars, aps int, b *float64, ldb int, c *float64, ldc int, add int)
//
// S[r][j] = Σ_p A[r*ars+p*aps]·B[p*ldb+j] for r < 4, j < n, stored as
// C = S, or as C = C + S when add != 0; needs n ≥ 4 and k ≥ 1, and with
// add, n a multiple of 4. Each accumulator lane is one output element: it
// starts at +0 and takes VMULPD then VADDPD per p in ascending order, the
// scalar chain exactly. There is no fused multiply-add anywhere in this
// file.
//
// Registers: AX = A row 0, R8 = ars bytes, R9 = aps bytes, R10 = ldb bytes,
// R13 = ldc bytes, R11 = B at the current column block, R12 = C row 0 at
// the current column block, DX = columns left. Per block: SI = A rows 0/1
// and DI = A rows 2/3 at the current p, BX = B row p, CX = p countdown.
// Y0..Y7 hold the 4x8 block (row r in Y(2r), Y(2r+1)), Y8/Y9 one B row,
// Y10/Y13 broadcast A elements, Y11/Y12 products.
TEXT ·gemm4x8AVX2(SB), NOSPLIT, $0-80
	MOVQ a+16(FP), AX
	MOVQ ars+24(FP), R8
	SHLQ $3, R8
	MOVQ aps+32(FP), R9
	SHLQ $3, R9
	MOVQ b+40(FP), R11
	MOVQ ldb+48(FP), R10
	SHLQ $3, R10
	MOVQ c+56(FP), R12
	MOVQ ldc+64(FP), R13
	SHLQ $3, R13
	MOVQ n+8(FP), DX
	CMPQ DX, $8
	JLT  narrow

wide:
	TESTQ DX, DX
	JZ    done
	CMPQ  DX, $8
	JGE   block8

	// Fewer than 8 columns left. Adding, they are exactly 4: finish with a
	// 4-wide block. Storing, slide the block back to end at column n.
	CMPQ add+72(FP), $0
	JNE  narrow
	MOVQ $8, CX
	SUBQ DX, CX
	SHLQ $3, CX
	SUBQ CX, R11
	SUBQ CX, R12
	MOVQ $8, DX

block8:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   AX, SI
	LEAQ   (AX)(R8*2), DI
	MOVQ   R11, BX
	MOVQ   k+0(FP), CX

loop8:
	VMOVUPD      (BX), Y8
	VMOVUPD      32(BX), Y9
	VBROADCASTSD (SI), Y10
	VMULPD       Y10, Y8, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y10, Y9, Y12
	VADDPD       Y12, Y1, Y1
	VBROADCASTSD (SI)(R8*1), Y13
	VMULPD       Y13, Y8, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       Y13, Y9, Y12
	VADDPD       Y12, Y3, Y3
	VBROADCASTSD (DI), Y10
	VMULPD       Y10, Y8, Y11
	VADDPD       Y11, Y4, Y4
	VMULPD       Y10, Y9, Y12
	VADDPD       Y12, Y5, Y5
	VBROADCASTSD (DI)(R8*1), Y13
	VMULPD       Y13, Y8, Y11
	VADDPD       Y11, Y6, Y6
	VMULPD       Y13, Y9, Y12
	VADDPD       Y12, Y7, Y7
	ADDQ         R9, SI
	ADDQ         R9, DI
	ADDQ         R10, BX
	DECQ         CX
	JNZ          loop8

	MOVQ R12, SI
	CMPQ add+72(FP), $0
	JE   store8

	// C + S, with C the first operand as in the scalar c += s.
	VMOVUPD (SI), Y8
	VMOVUPD 32(SI), Y9
	VADDPD  Y0, Y8, Y0
	VADDPD  Y1, Y9, Y1
	ADDQ    R13, SI
	VMOVUPD (SI), Y8
	VMOVUPD 32(SI), Y9
	VADDPD  Y2, Y8, Y2
	VADDPD  Y3, Y9, Y3
	ADDQ    R13, SI
	VMOVUPD (SI), Y8
	VMOVUPD 32(SI), Y9
	VADDPD  Y4, Y8, Y4
	VADDPD  Y5, Y9, Y5
	ADDQ    R13, SI
	VMOVUPD (SI), Y8
	VMOVUPD 32(SI), Y9
	VADDPD  Y6, Y8, Y6
	VADDPD  Y7, Y9, Y7
	MOVQ    R12, SI

store8:
	VMOVUPD Y0, (SI)
	VMOVUPD Y1, 32(SI)
	ADDQ    R13, SI
	VMOVUPD Y2, (SI)
	VMOVUPD Y3, 32(SI)
	ADDQ    R13, SI
	VMOVUPD Y4, (SI)
	VMOVUPD Y5, 32(SI)
	ADDQ    R13, SI
	VMOVUPD Y6, (SI)
	VMOVUPD Y7, 32(SI)
	ADDQ    $64, R11
	ADDQ    $64, R12
	SUBQ    $8, DX
	JMP     wide

// 4 ≤ n < 8: 4-wide blocks, the second slid back to end at column n.
narrow:
	TESTQ DX, DX
	JZ    done
	CMPQ  DX, $4
	JGE   block4
	MOVQ  $4, CX
	SUBQ  DX, CX
	SHLQ  $3, CX
	SUBQ  CX, R11
	SUBQ  CX, R12
	MOVQ  $4, DX

block4:
	VXORPD Y0, Y0, Y0
	VXORPD Y2, Y2, Y2
	VXORPD Y4, Y4, Y4
	VXORPD Y6, Y6, Y6
	MOVQ   AX, SI
	LEAQ   (AX)(R8*2), DI
	MOVQ   R11, BX
	MOVQ   k+0(FP), CX

loop4:
	VMOVUPD      (BX), Y8
	VBROADCASTSD (SI), Y10
	VMULPD       Y10, Y8, Y11
	VADDPD       Y11, Y0, Y0
	VBROADCASTSD (SI)(R8*1), Y13
	VMULPD       Y13, Y8, Y12
	VADDPD       Y12, Y2, Y2
	VBROADCASTSD (DI), Y10
	VMULPD       Y10, Y8, Y11
	VADDPD       Y11, Y4, Y4
	VBROADCASTSD (DI)(R8*1), Y13
	VMULPD       Y13, Y8, Y12
	VADDPD       Y12, Y6, Y6
	ADDQ         R9, SI
	ADDQ         R9, DI
	ADDQ         R10, BX
	DECQ         CX
	JNZ          loop4

	MOVQ R12, SI
	CMPQ add+72(FP), $0
	JE   store4
	VMOVUPD (SI), Y8
	VADDPD  Y0, Y8, Y0
	ADDQ    R13, SI
	VMOVUPD (SI), Y8
	VADDPD  Y2, Y8, Y2
	ADDQ    R13, SI
	VMOVUPD (SI), Y8
	VADDPD  Y4, Y8, Y4
	ADDQ    R13, SI
	VMOVUPD (SI), Y8
	VADDPD  Y6, Y8, Y6
	MOVQ    R12, SI

store4:
	VMOVUPD Y0, (SI)
	ADDQ    R13, SI
	VMOVUPD Y2, (SI)
	ADDQ    R13, SI
	VMOVUPD Y4, (SI)
	ADDQ    R13, SI
	VMOVUPD Y6, (SI)
	ADDQ    $32, R11
	ADDQ    $32, R12
	SUBQ    $4, DX
	JMP     narrow

done:
	VZEROUPPER
	RET
