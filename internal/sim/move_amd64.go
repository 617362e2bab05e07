//go:build amd64 && !race

package sim

import (
	"unsafe"

	"vinfra/internal/geo"
	"vinfra/internal/mobility"
)

// stepPairs is the packed mobility kernel (move_amd64.s): it steps the
// nodes ids[0:2], ids[2:4], … two per instruction with SSE2 and returns how
// many nodes it stepped, an even number, stopping at the first pair it
// declines. It reads each node's leg from legs[id], its position from
// info[id] and its model from models[legs[id].model-1], the column layout
// moveChunk reads. A pair is taken only when both nodes are alive, roam
// under one model, have a destination, have a difference to it that is not
// NaN in either coordinate, and stay steady (a distance above VMax) — every
// other pair is the scalar loop's. For the pairs it takes it runs Leg.Dist
// and RandomWaypoint.Ahead operation for operation, so the positions it
// writes are the scalar loop's bit for bit. A non-nil box is stretched over
// every position it writes, in alive order, as moveChunk stretches it.
//
// The race detector cannot see the kernel's writes, so race builds take the
// kernel-less stub in move_other.go.
//
//go:noescape
func stepPairs(ids []int32, legs []legSlot, info []NodeInfo, models []*mobility.RandomWaypoint, box *geo.Rect) int

// The kernel's offsets into types of other packages. go_asm.h has the
// package's own; Leg's fields are unexported, and TestKernelLayout reads
// them by reflection.
const (
	wpVMax      = unsafe.Offsetof(mobility.RandomWaypoint{}.VMax)
	legDest     = 0
	legHasDest  = 16
	nodeInfoLog = 5 // NodeInfo is 1<<nodeInfoLog bytes
	legSlotLog  = 5 // legSlot is 1<<legSlotLog bytes
)

// The kernel indexes info and legs by shifting; a NodeInfo or a legSlot
// that stops being 32 bytes fails to compile here.
var (
	_ = [1]struct{}{}[unsafe.Sizeof(NodeInfo{})-1<<nodeInfoLog]
	_ = [1]struct{}{}[unsafe.Sizeof(legSlot{})-1<<legSlotLog]
)
