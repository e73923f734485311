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

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// func lanes8x2AVX2(a *float64, as int, x *float64, xs, xoff, n int, dst *[16]float64)
//
// Y0..Y3 accumulate lanes 0–3 and 4–7 of the vectors at x and x+xoff. Each
// term is one VMULPD, rounded, then one VADDPD, rounded: never an FMA.
TEXT ·lanes8x2AVX2(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), SI
	MOVQ as+8(FP), AX
	SHLQ $3, AX
	MOVQ x+16(FP), DI
	MOVQ xs+24(FP), BX
	SHLQ $3, BX
	MOVQ xoff+32(FP), DX
	SHLQ $3, DX
	MOVQ n+40(FP), CX
	MOVQ dst+48(FP), R8
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

loop2:
	VMOVUPD      (SI), Y4
	VMOVUPD      32(SI), Y5
	VBROADCASTSD (DI), Y6
	VBROADCASTSD (DI)(DX*1), Y7
	VMULPD       Y6, Y4, Y8
	VADDPD       Y8, Y0, Y0
	VMULPD       Y6, Y5, Y9
	VADDPD       Y9, Y1, Y1
	VMULPD       Y7, Y4, Y10
	VADDPD       Y10, Y2, Y2
	VMULPD       Y7, Y5, Y11
	VADDPD       Y11, Y3, Y3
	ADDQ         AX, SI
	ADDQ         BX, DI
	DECQ         CX
	JNZ          loop2

	VMOVUPD Y0, (R8)
	VMOVUPD Y1, 32(R8)
	VMOVUPD Y2, 64(R8)
	VMOVUPD Y3, 96(R8)
	VZEROUPPER
	RET

// func lanes8x4AVX512(a *float64, as int, x *float64, xs, xoff, n int, dst *[32]float64)
//
// Z0..Z3 accumulate lanes 0–7 of the vectors at x, x+xoff, x+2·xoff and
// x+3·xoff. Each term is one VMULPD, rounded, then one VADDPD, rounded:
// never an FMA.
TEXT ·lanes8x4AVX512(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), SI
	MOVQ as+8(FP), AX
	SHLQ $3, AX
	MOVQ x+16(FP), DI
	MOVQ xs+24(FP), BX
	SHLQ $3, BX
	MOVQ xoff+32(FP), DX
	SHLQ $3, DX
	LEAQ (DX)(DX*2), R9
	MOVQ n+40(FP), CX
	MOVQ dst+48(FP), R8
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3

loop4:
	VMOVUPD      (SI), Z4
	VBROADCASTSD (DI), Z5
	VBROADCASTSD (DI)(DX*1), Z6
	VBROADCASTSD (DI)(DX*2), Z7
	VBROADCASTSD (DI)(R9*1), Z8
	VMULPD       Z5, Z4, Z9
	VADDPD       Z9, Z0, Z0
	VMULPD       Z6, Z4, Z10
	VADDPD       Z10, Z1, Z1
	VMULPD       Z7, Z4, Z11
	VADDPD       Z11, Z2, Z2
	VMULPD       Z8, Z4, Z12
	VADDPD       Z12, Z3, Z3
	ADDQ         AX, SI
	ADDQ         BX, DI
	DECQ         CX
	JNZ          loop4

	VMOVUPD Z0, (R8)
	VMOVUPD Z1, 64(R8)
	VMOVUPD Z2, 128(R8)
	VMOVUPD Z3, 192(R8)
	VZEROUPPER
	RET
