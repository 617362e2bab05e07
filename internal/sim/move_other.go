//go:build !amd64 || race

package sim

import "vinfra/internal/geo"

// stepPairs declines every pair: without the packed kernel (move_amd64.s)
// the scalar loop steps every node.
func stepPairs([]*nodeState, []NodeInfo, *geo.Rect) int { return 0 }
