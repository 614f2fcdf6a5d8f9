#include "textflag.h"

// func projectAVX512(src []float32, mean, v []float64, dst []float32)
//
// Thirty-two outputs per pass in four ZMM accumulators (Z0..Z3, eight
// float64 outputs each), cleared to +0.0. For k ascending, x_k =
// float64(src[k]) - mean[k] is broadcast and row k of v (outputs j..j+31)
// is multiplied by it with VMULPD and added with VADDPD: every product is
// rounded before it is added, never fused, so each output takes exactly the
// Go loop's terms in the Go loop's order. VCVTPD2PS rounds the sums to
// float32 as the Go conversion does.
TEXT ·projectAVX512(SB), NOSPLIT, $0-96
	MOVQ src_base+0(FP), SI
	MOVQ src_len+8(FP), DX   // DX = d
	MOVQ mean_base+24(FP), R8
	MOVQ mean_len+32(FP), R9
	MOVQ v_base+48(FP), DI
	MOVQ dst_base+72(FP), BX
	MOVQ dst_len+80(FP), CX
	SHRQ $5, CX              // CX = passes of 32 outputs
	JZ   done
	MOVQ DX, R10
	SHLQ $3, R10             // R10 = row stride of v in bytes

pass:
	VXORPD Z0, Z0, Z0
	VXORPD Z1, Z1, Z1
	VXORPD Z2, Z2, Z2
	VXORPD Z3, Z3, Z3
	MOVQ   DI, R11           // R11 = &v[k*d+j]
	XORQ   AX, AX            // AX = k

dims:
	VCVTSS2SD    (SI)(AX*4), X4, X4
	TESTQ        R9, R9
	JZ           centred
	VSUBSD       (R8)(AX*8), X4, X4

centred:
	VBROADCASTSD X4, Z4
	VMULPD       (R11), Z4, Z5
	VMULPD       64(R11), Z4, Z6
	VMULPD       128(R11), Z4, Z7
	VMULPD       192(R11), Z4, Z8
	VADDPD       Z5, Z0, Z0
	VADDPD       Z6, Z1, Z1
	VADDPD       Z7, Z2, Z2
	VADDPD       Z8, Z3, Z3
	ADDQ         R10, R11
	INCQ         AX
	CMPQ         AX, DX
	JLT          dims

	VCVTPD2PS Z0, Y0
	VCVTPD2PS Z1, Y1
	VCVTPD2PS Z2, Y2
	VCVTPD2PS Z3, Y3
	VMOVUPS   Y0, (BX)
	VMOVUPS   Y1, 32(BX)
	VMOVUPS   Y2, 64(BX)
	VMOVUPS   Y3, 96(BX)
	ADDQ      $128, BX
	ADDQ      $256, DI
	DECQ      CX
	JNZ       pass
	VZEROUPPER

done:
	RET
