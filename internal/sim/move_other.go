//go:build !amd64 || race

package sim

import (
	"vinfra/internal/geo"
	"vinfra/internal/mobility"
)

// stepPairs declines every pair: without the packed kernel (move_amd64.s)
// the scalar loop steps every node.
func stepPairs([]int32, []legSlot, []NodeInfo, []*mobility.RandomWaypoint, *geo.Rect) int {
	return 0
}
