//go:build amd64 && !race

#include "go_asm.h"
#include "textflag.h"

// func stepPairs(ids []int32, legs []legSlot, info []NodeInfo, models []*mobility.RandomWaypoint, box *geo.Rect) int
//
// Lane i of a packed register is node i of the pair, or coordinate i of a
// point. Per pair, as Leg.Dist and RandomWaypoint.Ahead compute it:
//
//	δ   = dest - cur
//	hi  = max(|δx|, |δy|), lo = min(|δx|, |δy|)
//	d   = hi * sqrt(1 + (lo/hi)²)
//	cur = cur + (δ * (1/d)) * VMax    if d > VMax, else decline
//
// IEEE addition and multiplication commute bit for bit, so operand order
// within one operation is free; the order of operations is Dist's and
// Ahead's. Dist orders the magnitudes as integers, so a NaN difference
// makes its distance NaN; MAXPD and MINPD hand back their source operand
// when either input is NaN, so hi takes |δx| as its source and lo takes
// |δy|: a NaN in either coordinate reaches d, which then fails d > VMax and
// declines the pair, as the scalar step hands it to Turn. hi = 0 makes lo/hi
// NaN and declines the same way.
//
// R14 holds the models base: ABI0 code may use it, and R15 stays clear.
TEXT ·stepPairs(SB), NOSPLIT, $0-112
	MOVQ ids_base+0(FP), SI
	MOVQ ids_len+8(FP), CX
	MOVQ legs_base+24(FP), R13
	MOVQ info_base+48(FP), DI
	MOVQ models_base+72(FP), R14
	MOVQ box+96(FP), DX
	XORQ AX, AX

	MOVQ     $0x7fffffffffffffff, BX
	MOVQ     BX, X14
	UNPCKLPD X14, X14 // X14 = |·| mask
	MOVQ     $0x3ff0000000000000, BX
	MOVQ     BX, X11
	UNPCKLPD X11, X11 // X11 = 1, 1
	TESTQ    DX, DX
	JZ       loop
	MOVUPD   0(DX), X12  // box.Min
	MOVUPD   16(DX), X13 // box.Max

loop:
	LEAQ  2(AX), BX
	CMPQ  BX, CX
	JGT   done
	MOVLQSX (SI)(AX*4), R11  // id0
	MOVLQSX 4(SI)(AX*4), R12 // id1
	MOVQ    R11, R8
	SHLQ    $const_legSlotLog, R8
	ADDQ    R13, R8 // &legs[id0]
	MOVQ    R12, R9
	SHLQ    $const_legSlotLog, R9
	ADDQ    R13, R9 // &legs[id1]
	MOVLQSX legSlot_model(R8), R10
	TESTQ   R10, R10
	JZ      done    // static
	CMPL    R10, legSlot_model(R9)
	JNE     done    // static, or another model
	MOVB    (legSlot_leg+const_legHasDest)(R8), BL
	ANDB    (legSlot_leg+const_legHasDest)(R9), BL
	JZ      done
	SHLQ    $const_nodeInfoLog, R11
	ADDQ    DI, R11 // &info[id0]
	SHLQ    $const_nodeInfoLog, R12
	ADDQ    DI, R12 // &info[id1]
	MOVB    NodeInfo_Alive(R11), BL
	ANDB    NodeInfo_Alive(R12), BL
	JZ      done

	MOVUPD   NodeInfo_At(R11), X0 // cur of id0
	MOVUPD   NodeInfo_At(R12), X1 // cur of id1
	MOVUPD   (legSlot_leg+const_legDest)(R8), X6
	SUBPD    X0, X6
	MOVUPD   (legSlot_leg+const_legDest)(R9), X7
	SUBPD    X1, X7
	MOVAPD   X6, X2
	UNPCKLPD X7, X2 // X2 = δx
	UNPCKHPD X7, X6 // X6 = δy

	MOVAPD X2, X8
	ANDPD  X14, X8 // |δx|
	MOVAPD X6, X9
	ANDPD  X14, X9 // |δy|
	MOVAPD X9, X10
	MAXPD  X8, X10 // hi
	MINPD  X9, X8  // lo
	DIVPD  X10, X8
	MULPD  X8, X8
	ADDPD  X11, X8
	SQRTPD X8, X8
	MULPD  X10, X8 // d

	MOVQ     -8(R14)(R10*8), R10 // models[model-1]
	MOVSD    const_wpVMax(R10), X9
	UNPCKLPD X9, X9 // X9 = VMax, VMax
	MOVAPD   X9, X10
	CMPPD    X8, X10, $1 // VMax < d
	MOVMSKPD X10, BX
	CMPQ     BX, $3
	JNE      done

	MOVAPD   X11, X10
	DIVPD    X8, X10 // 1/d
	MULPD    X10, X2
	MULPD    X9, X2
	MULPD    X10, X6
	MULPD    X9, X6
	MOVAPD   X2, X3
	UNPCKLPD X6, X3 // step of id0
	UNPCKHPD X6, X2 // step of id1
	ADDPD    X3, X0
	ADDPD    X2, X1
	MOVUPD   X0, NodeInfo_At(R11)
	MOVUPD   X1, NodeInfo_At(R12)
	ADDQ     $2, AX

	// The box takes id0, then id1, each as moveChunk's compares take it:
	// the running box is the source operand, so a NaN moves nothing.
	TESTQ  DX, DX
	JZ     loop
	MOVAPD X0, X2
	MINPD  X12, X2
	MOVAPD X2, X12
	MAXPD  X13, X0
	MOVAPD X0, X13
	MOVAPD X1, X2
	MINPD  X12, X2
	MOVAPD X2, X12
	MAXPD  X13, X1
	MOVAPD X1, X13
	JMP    loop

done:
	TESTQ  DX, DX
	JZ     ret
	MOVUPD X12, 0(DX)
	MOVUPD X13, 16(DX)

ret:
	MOVQ AX, ret+104(FP)
	RET
