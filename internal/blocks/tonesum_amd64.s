#include "textflag.h"

// Byte offsets of the rows of ·toneConsts (32 bytes each).
#define K_LIM  0
#define K_4PI  32
#define K_PI4A 64
#define K_PI4B 96
#define K_PI4C 128
#define K_S0   160
#define K_S1   192
#define K_S2   224
#define K_S3   256
#define K_S4   288
#define K_S5   320
#define K_C0   352
#define K_C1   384
#define K_C2   416
#define K_C3   448
#define K_C4   480
#define K_C5   512
#define K_HALF 544
#define K_ONE  576

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

// func toneSumAVX2(w, phi, amp []float64, t, a float64) (sum float64, done int)
//
// Register use: AX tone index, DX last group start (n-4), SI/DI/R8 the
// w/phi/amp columns, R9 ·toneConsts, X0 the accumulator, Y1 t in every
// lane, Y13 the int32 constant 1 in every lane, Y14 2^29, Y15 zero.
TEXT ·toneSumAVX2(SB), NOSPLIT, $0-104
	MOVQ w_base+0(FP), SI
	MOVQ w_len+8(FP), DX
	MOVQ phi_base+24(FP), DI
	MOVQ amp_base+48(FP), R8
	LEAQ ·toneConsts(SB), R9
	VBROADCASTSD t+72(FP), Y1
	VMOVSD a+80(FP), X0
	VPCMPEQD X13, X13, X13
	VPSRLD $31, X13, X13
	VMOVUPD K_LIM(R9), Y14
	VXORPD Y15, Y15, Y15
	XORQ AX, AX
	SUBQ $4, DX

loop:
	CMPQ AX, DX
	JGT  done

	// x = w*t + phi, rounded twice as the reference loop rounds it.
	VMULPD (SI)(AX*8), Y1, Y2
	VADDPD (DI)(AX*8), Y2, Y2

	// ax = |x|. Stop before this group unless 0 < ax < 2^29 in every
	// lane (both compares are false for NaN).
	VPSLLQ    $1, Y2, Y3
	VPSRLQ    $1, Y3, Y3
	VCMPPD    $0x11, Y14, Y3, Y4 // ax < 2^29 (LT_OQ)
	VCMPPD    $0x1e, Y15, Y3, Y5 // ax > 0 (GT_OQ)
	VANDPD    Y5, Y4, Y4
	VMOVMSKPD Y4, BX
	CMPQ      BX, $15
	JNE       done

	// j = trunc(ax*4/pi) rounded up to even (int32 lanes in X4);
	// y = float64(j).
	VMULPD      K_4PI(R9), Y3, Y4
	VCVTTPD2DQY Y4, X4
	VPAND       X13, X4, X5
	VPADDD      X5, X4, X4
	VCVTDQ2PD   X4, Y5

	// z = ((ax - y*PI4A) - y*PI4B) - y*PI4C; zz = z*z.
	VMULPD K_PI4A(R9), Y5, Y6
	VSUBPD Y6, Y3, Y6
	VMULPD K_PI4B(R9), Y5, Y7
	VSUBPD Y7, Y6, Y6
	VMULPD K_PI4C(R9), Y5, Y7
	VSUBPD Y7, Y6, Y6
	VMULPD Y6, Y6, Y7

	// Y8 = z + z*zz*((((((S0*zz)+S1)*zz+S2)*zz+S3)*zz+S4)*zz+S5).
	VMULPD K_S0(R9), Y7, Y8
	VADDPD K_S1(R9), Y8, Y8
	VMULPD Y7, Y8, Y8
	VADDPD K_S2(R9), Y8, Y8
	VMULPD Y7, Y8, Y8
	VADDPD K_S3(R9), Y8, Y8
	VMULPD Y7, Y8, Y8
	VADDPD K_S4(R9), Y8, Y8
	VMULPD Y7, Y8, Y8
	VADDPD K_S5(R9), Y8, Y8
	VMULPD Y7, Y6, Y9
	VMULPD Y8, Y9, Y9
	VADDPD Y9, Y6, Y8

	// Y9 = 1.0 - 0.5*zz + zz*zz*((((((C0*zz)+C1)*zz+C2)*zz+C3)*zz+C4)*zz+C5).
	VMULPD  K_C0(R9), Y7, Y9
	VADDPD  K_C1(R9), Y9, Y9
	VMULPD  Y7, Y9, Y9
	VADDPD  K_C2(R9), Y9, Y9
	VMULPD  Y7, Y9, Y9
	VADDPD  K_C3(R9), Y9, Y9
	VMULPD  Y7, Y9, Y9
	VADDPD  K_C4(R9), Y9, Y9
	VMULPD  Y7, Y9, Y9
	VADDPD  K_C5(R9), Y9, Y9
	VMULPD  Y7, Y7, Y10
	VMULPD  Y9, Y10, Y10
	VMULPD  K_HALF(R9), Y7, Y11
	VMOVUPD K_ONE(R9), Y12
	VSUBPD  Y11, Y12, Y11
	VADDPD  Y10, Y11, Y9

	// The cosine where bit 1 of j is set: its int32 sign bit after the
	// shift, sign-extended into the qword blend mask.
	VPSLLD    $30, X4, X5
	VPMOVSXDQ X5, Y5
	VBLENDVPD Y5, Y9, Y8, Y8

	// Sign: the sign bit of x, flipped where bit 2 of j is set.
	VPSRLD    $2, X4, X5
	VPMOVZXDQ X5, Y5
	VPSLLQ    $63, Y5, Y5
	VXORPD    Y3, Y2, Y6
	VXORPD    Y6, Y5, Y5
	VXORPD    Y5, Y8, Y8

	// a += amp*sin, one lane at a time in index order.
	VMULPD       (R8)(AX*8), Y8, Y8
	VADDSD       X8, X0, X0
	VUNPCKHPD    X8, X8, X9
	VADDSD       X9, X0, X0
	VEXTRACTF128 $1, Y8, X8
	VADDSD       X8, X0, X0
	VUNPCKHPD    X8, X8, X9
	VADDSD       X9, X0, X0

	ADDQ $4, AX
	JMP  loop

done:
	VZEROUPPER
	MOVSD X0, sum+88(FP)
	MOVQ  AX, done+96(FP)
	RET
