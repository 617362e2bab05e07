package experiments

import (
	"vinfra/internal/harness"
)

// e11Shapes are the metro sweep's virtual-node grids: the quick variant
// keeps the golden suite fast, the full variant is the scale the O(1)
// region lookup and the allocation-free round loop were built for.
var e11Shapes = []struct {
	name       string
	cols, rows int
}{
	{"3x3", 3, 3},
	{"5x5", 5, 5},
	{"7x7", 7, 7},
}

var e11Desc = harness.Descriptor{
	ID:    "E11",
	Group: "E11",
	Title: "E11 — metro: emulation scale under heavy churn",
	Notes: "grid-indexed sharded delivery + parallel engine, managed leaders with failover; every vround one region's oldest replica departs (Leave / scheduled CrashAt / late CrashAt), leadership hands to the next-oldest, and a fresh device attaches and joins",
	Columns: []string{
		"vnodes", "devices", "vrounds", "churn events",
		"alive at end", "availability", "mean join latency (vrounds)", "joins", "resets",
	},
	Grid: func(quick bool) []harness.Params {
		shapes := e11Shapes
		vrounds := 30
		if quick {
			shapes = e11Shapes[:1]
			vrounds = 8
		}
		var grid []harness.Params
		for _, s := range shapes {
			grid = append(grid, harness.Params{
				Label: s.name,
				Ints:  map[string]int{"cols": s.cols, "rows": s.rows, "vrounds": vrounds},
			})
		}
		return grid
	},
	Run: metroCell,
}

func init() { harness.Register(e11Desc) }

// metroCell runs one metro deployment: a grid of virtual nodes, each
// bootstrapped with three replicas plus a staggered pinging client, driven
// through heavy churn — every virtual round the rotation picks a region,
// its oldest replica departs through one of the three departure paths
// (immediate Leave, a CrashAt scheduled mid-vround, and a CrashAt aimed at
// an already-past round, the silently-dropped case the engine now applies
// immediately), leadership hands to the next-oldest replica, and a fresh
// device attaches nearby and acquires state through the join protocol.
// Virtual nodes must stay available throughout (Section 4.2's progress
// condition at deployment scale): availability near 1 plus zero resets
// means state survived total replica turnover. Leaders are managed
// (fixedLeader with explicit failover) so the column measures churn, not
// the backoff manager's multi-region election contention — E6 covers the
// elected-leader churn story on a single region.
func metroCell(c *harness.Cell) []harness.Row {
	return metroRows(c, 0)
}

// metroRows runs one metro cell by stepping its Soak to completion (the
// checkpointable driver in soak.go is the single implementation of the
// churn load); the shard count exists for TestShardedEqualsSequential,
// which pins region-sharded runs (shards > 0) byte-identical to the
// single-medium cell under the metro churn load.
func metroRows(c *harness.Cell, shards int) []harness.Row {
	s := newMetroSoak(c, shards)
	for s.VRound() < s.VRounds() {
		s.StepVRound()
	}
	return s.Rows()
}
