#include "textflag.h"

// AVX2 twins of the elementwise kernels in elementwise.go. Every lane is one
// element and takes the Go loop's operations in the Go loop's order, with
// the Go expression's left operand as the instruction's first source; the
// remainder after the vector blocks takes the scalar forms of the same
// instructions. There is no fused multiply-add anywhere in this file.
//
// Flat kernels (relu, reluBackward, add): AX = element index, CX = n,
// DX = n rounded down to 16, BX = n rounded down to 4; a 16-element block
// is four 4-lane macro steps, then 4-lane steps, then scalar steps. Each
// step loads its inputs before it stores, so dst may be the very slice it
// reads. SI, R8 = inputs, DI = dst.

// dst = a > 0 ? a : +0. VMAXPD returns its second source unless the first
// is greater, so with a first and +0 (Y8) second, NaN and −0 give +0.
#define RELU4(off) \
	VMOVUPD off(SI)(AX*8), Y0; \
	VMAXPD  Y8, Y0, Y0;        \
	VMOVUPD Y0, off(DI)(AX*8)

// func reluAVX2(dst, a *float64, n int)
TEXT ·reluAVX2(SB), NOSPLIT, $0-24
	MOVQ   dst+0(FP), DI
	MOVQ   a+8(FP), SI
	MOVQ   n+16(FP), CX
	VXORPD Y8, Y8, Y8
	XORQ   AX, AX
	MOVQ   CX, DX
	ANDQ   $-16, DX
	MOVQ   CX, BX
	ANDQ   $-4, BX

relu16:
	CMPQ AX, DX
	JGE  relu4
	RELU4(0)
	RELU4(32)
	RELU4(64)
	RELU4(96)
	ADDQ $16, AX
	JMP  relu16

relu4:
	CMPQ AX, BX
	JGE  relu1
	RELU4(0)
	ADDQ $4, AX
	JMP  relu4

relu1:
	CMPQ   AX, CX
	JGE    reluDone
	VMOVSD (SI)(AX*8), X0
	VMAXSD X8, X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    relu1

reluDone:
	VZEROUPPER
	RET

// dst = x > 0 ? grad : +0, with SI = grad and R8 = x: an ordered
// greater-than against +0 (predicate 0x1e, GT_OQ, false on NaN) gives an
// all-ones or all-zeros mask, ANDed with grad's bits.
#define RELUBACK4(off) \
	VMOVUPD off(R8)(AX*8), Y0;  \
	VCMPPD  $0x1e, Y8, Y0, Y0;  \
	VANDPD  off(SI)(AX*8), Y0, Y0; \
	VMOVUPD Y0, off(DI)(AX*8)

// func reluBackwardAVX2(dst, grad, x *float64, n int)
TEXT ·reluBackwardAVX2(SB), NOSPLIT, $0-32
	MOVQ   dst+0(FP), DI
	MOVQ   grad+8(FP), SI
	MOVQ   x+16(FP), R8
	MOVQ   n+24(FP), CX
	VXORPD Y8, Y8, Y8
	XORQ   AX, AX
	MOVQ   CX, DX
	ANDQ   $-16, DX
	MOVQ   CX, BX
	ANDQ   $-4, BX

rb16:
	CMPQ AX, DX
	JGE  rb4
	RELUBACK4(0)
	RELUBACK4(32)
	RELUBACK4(64)
	RELUBACK4(96)
	ADDQ $16, AX
	JMP  rb16

rb4:
	CMPQ AX, BX
	JGE  rb1
	RELUBACK4(0)
	ADDQ $4, AX
	JMP  rb4

rb1:
	CMPQ   AX, CX
	JGE    rbDone
	VMOVSD (R8)(AX*8), X0
	VCMPSD $0x1e, X8, X0, X0
	VMOVSD (SI)(AX*8), X1
	VANDPD X1, X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    rb1

rbDone:
	VZEROUPPER
	RET

// dst = a + b, with SI = a and R8 = b.
#define ADD4(off) \
	VMOVUPD off(SI)(AX*8), Y0;     \
	VADDPD  off(R8)(AX*8), Y0, Y0; \
	VMOVUPD Y0, off(DI)(AX*8)

// func addAVX2(dst, a, b *float64, n int)
TEXT ·addAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), R8
	MOVQ n+24(FP), CX
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-16, DX
	MOVQ CX, BX
	ANDQ $-4, BX

add16:
	CMPQ AX, DX
	JGE  add4
	ADD4(0)
	ADD4(32)
	ADD4(64)
	ADD4(96)
	ADDQ $16, AX
	JMP  add16

add4:
	CMPQ AX, BX
	JGE  add1
	ADD4(0)
	ADDQ $4, AX
	JMP  add4

add1:
	CMPQ   AX, CX
	JGE    addDone
	VMOVSD (SI)(AX*8), X0
	VADDSD (R8)(AX*8), X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    add1

addDone:
	VZEROUPPER
	RET

// func addBiasAVX2(dst *float64, ldd int, src *float64, lds, n, rows int, bias *float64)
//
// dst row r = src row r + bias[r], n elements a row. AX = element index,
// BX = n rounded down to 8, R12 = n rounded down to 4, R11 = n; R8/R9 =
// the dst/src row strides in bytes, R10 = rows left, DX = &bias[r],
// Y10 = bias[r].
TEXT ·addBiasAVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R8
	SHLQ $3, R8
	MOVQ src+16(FP), SI
	MOVQ lds+24(FP), R9
	SHLQ $3, R9
	MOVQ n+32(FP), R11
	MOVQ rows+40(FP), R10
	MOVQ bias+48(FP), DX
	MOVQ R11, BX
	ANDQ $-8, BX
	MOVQ R11, R12
	ANDQ $-4, R12

biasRow:
	VBROADCASTSD (DX), Y10
	XORQ         AX, AX

bias8:
	CMPQ    AX, BX
	JGE     bias4
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD 32(SI)(AX*8), Y1
	VADDPD  Y10, Y0, Y0
	VADDPD  Y10, Y1, Y1
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	ADDQ    $8, AX
	JMP     bias8

bias4:
	CMPQ    AX, R12
	JGE     bias1
	VMOVUPD (SI)(AX*8), Y0
	VADDPD  Y10, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX

bias1:
	CMPQ   AX, R11
	JGE    biasNext
	VMOVSD (SI)(AX*8), X0
	VADDSD X10, X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    bias1

biasNext:
	ADDQ R8, DI
	ADDQ R9, SI
	ADDQ $8, DX
	DECQ R10
	JNZ  biasRow
	VZEROUPPER
	RET

// Batch-norm kernels: rows × c runs of s contiguous elements, run (i, ch)
// taking channel ch's parameters, broadcast into YMM registers at the
// start of the run. Within a run AX is the element index, BX = s rounded down to 8,
// R12 = s rounded down to 4, R11 = s; 8-element blocks are two 4-lane
// macro steps, then at most one 4-lane step, then scalar steps. After a
// run the data pointers move on by s elements. CX = channel, R10 = c,
// R9 = rows left.

// xhat = (x − mean)·inv; out = gamma·xhat + beta. SI = x, R8 = xhat,
// DI = out; Y10 = mean, Y11 = inv, Y12 = gamma, Y13 = beta.
#define BN_TRAIN4(off, Y) \
	VMOVUPD off(SI)(AX*8), Y; \
	VSUBPD  Y10, Y, Y;        \
	VMULPD  Y11, Y, Y;        \
	VMOVUPD Y, off(R8)(AX*8); \
	VMULPD  Y, Y12, Y;        \
	VADDPD  Y13, Y, Y;        \
	VMOVUPD Y, off(DI)(AX*8)

// func bnTrainAVX2(out, xhat, x *float64, rows, c, s int, mean, inv, gamma, beta *float64)
TEXT ·bnTrainAVX2(SB), NOSPLIT, $0-80
	MOVQ out+0(FP), DI
	MOVQ xhat+8(FP), R8
	MOVQ x+16(FP), SI
	MOVQ rows+24(FP), R9
	MOVQ c+32(FP), R10
	MOVQ s+40(FP), R11
	MOVQ R11, BX
	ANDQ $-8, BX
	MOVQ R11, R12
	ANDQ $-4, R12

trainRow:
	XORQ CX, CX

trainChan:
	MOVQ         mean+48(FP), AX
	VBROADCASTSD (AX)(CX*8), Y10
	MOVQ         inv+56(FP), AX
	VBROADCASTSD (AX)(CX*8), Y11
	MOVQ         gamma+64(FP), AX
	VBROADCASTSD (AX)(CX*8), Y12
	MOVQ         beta+72(FP), AX
	VBROADCASTSD (AX)(CX*8), Y13
	XORQ         AX, AX

train8:
	CMPQ AX, BX
	JGE  train4
	BN_TRAIN4(0, Y0)
	BN_TRAIN4(32, Y1)
	ADDQ $8, AX
	JMP  train8

train4:
	CMPQ AX, R12
	JGE  train1
	BN_TRAIN4(0, Y0)
	ADDQ $4, AX

train1:
	CMPQ   AX, R11
	JGE    trainNext
	VMOVSD (SI)(AX*8), X0
	VSUBSD X10, X0, X0
	VMULSD X11, X0, X0
	VMOVSD X0, (R8)(AX*8)
	VMULSD X0, X12, X0
	VADDSD X13, X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    train1

trainNext:
	LEAQ (SI)(R11*8), SI
	LEAQ (R8)(R11*8), R8
	LEAQ (DI)(R11*8), DI
	INCQ CX
	CMPQ CX, R10
	JLT  trainChan
	DECQ R9
	JNZ  trainRow
	VZEROUPPER
	RET

// out = ((gamma·(x − mean))·inv) + beta. SI = x, DI = out; Y10 = mean,
// Y11 = inv, Y12 = gamma, Y13 = beta.
#define BN_EVAL4(off, Y) \
	VMOVUPD off(SI)(AX*8), Y; \
	VSUBPD  Y10, Y, Y;        \
	VMULPD  Y, Y12, Y;        \
	VMULPD  Y11, Y, Y;        \
	VADDPD  Y13, Y, Y;        \
	VMOVUPD Y, off(DI)(AX*8)

// func bnEvalAVX2(out, x *float64, rows, c, s int, mean, inv, gamma, beta *float64)
TEXT ·bnEvalAVX2(SB), NOSPLIT, $0-72
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ rows+16(FP), R9
	MOVQ c+24(FP), R10
	MOVQ s+32(FP), R11
	MOVQ R11, BX
	ANDQ $-8, BX
	MOVQ R11, R12
	ANDQ $-4, R12

evalRow:
	XORQ CX, CX

evalChan:
	MOVQ         mean+40(FP), AX
	VBROADCASTSD (AX)(CX*8), Y10
	MOVQ         inv+48(FP), AX
	VBROADCASTSD (AX)(CX*8), Y11
	MOVQ         gamma+56(FP), AX
	VBROADCASTSD (AX)(CX*8), Y12
	MOVQ         beta+64(FP), AX
	VBROADCASTSD (AX)(CX*8), Y13
	XORQ         AX, AX

eval8:
	CMPQ AX, BX
	JGE  eval4
	BN_EVAL4(0, Y0)
	BN_EVAL4(32, Y1)
	ADDQ $8, AX
	JMP  eval8

eval4:
	CMPQ AX, R12
	JGE  eval1
	BN_EVAL4(0, Y0)
	ADDQ $4, AX

eval1:
	CMPQ   AX, R11
	JGE    evalNext
	VMOVSD (SI)(AX*8), X0
	VSUBSD X10, X0, X0
	VMULSD X0, X12, X0
	VMULSD X11, X0, X0
	VADDSD X13, X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    eval1

evalNext:
	LEAQ (SI)(R11*8), SI
	LEAQ (DI)(R11*8), DI
	INCQ CX
	CMPQ CX, R10
	JLT  evalChan
	DECQ R9
	JNZ  evalRow
	VZEROUPPER
	RET

// dx = k·((m·dy − sumDy) − xhat·sumDyXhat). SI = dy, R8 = xhat, DI = dx;
// Y9 = m, Y10 = k, Y11 = sumDy, Y12 = sumDyXhat.
#define BN_BWD4(off, Y, T) \
	VMULPD  off(SI)(AX*8), Y9, Y; \
	VSUBPD  Y11, Y, Y;            \
	VMOVUPD off(R8)(AX*8), T;     \
	VMULPD  Y12, T, T;            \
	VSUBPD  T, Y, Y;              \
	VMULPD  Y, Y10, Y;            \
	VMOVUPD Y, off(DI)(AX*8)

// func bnBackwardAVX2(dx, dy, xhat *float64, rows, c, s int, m float64, k, sumDy, sumDyXhat *float64)
TEXT ·bnBackwardAVX2(SB), NOSPLIT, $0-80
	MOVQ         dx+0(FP), DI
	MOVQ         dy+8(FP), SI
	MOVQ         xhat+16(FP), R8
	MOVQ         rows+24(FP), R9
	MOVQ         c+32(FP), R10
	MOVQ         s+40(FP), R11
	VBROADCASTSD m+48(FP), Y9
	MOVQ         R11, BX
	ANDQ         $-8, BX
	MOVQ         R11, R12
	ANDQ         $-4, R12

bwdRow:
	XORQ CX, CX

bwdChan:
	MOVQ         k+56(FP), AX
	VBROADCASTSD (AX)(CX*8), Y10
	MOVQ         sumDy+64(FP), AX
	VBROADCASTSD (AX)(CX*8), Y11
	MOVQ         sumDyXhat+72(FP), AX
	VBROADCASTSD (AX)(CX*8), Y12
	XORQ         AX, AX

bwd8:
	CMPQ AX, BX
	JGE  bwd4
	BN_BWD4(0, Y0, Y1)
	BN_BWD4(32, Y2, Y3)
	ADDQ $8, AX
	JMP  bwd8

bwd4:
	CMPQ AX, R12
	JGE  bwd1
	BN_BWD4(0, Y0, Y1)
	ADDQ $4, AX

bwd1:
	CMPQ   AX, R11
	JGE    bwdNext
	VMULSD (SI)(AX*8), X9, X0
	VSUBSD X11, X0, X0
	VMOVSD (R8)(AX*8), X1
	VMULSD X12, X1, X1
	VSUBSD X1, X0, X0
	VMULSD X0, X10, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    bwd1

bwdNext:
	LEAQ (SI)(R11*8), SI
	LEAQ (R8)(R11*8), R8
	LEAQ (DI)(R11*8), DI
	INCQ CX
	CMPQ CX, R10
	JLT  bwdChan
	DECQ R9
	JNZ  bwdRow
	VZEROUPPER
	RET
