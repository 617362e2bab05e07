package sim

import (
	"fmt"
	"reflect"
	"testing"

	"vinfra/internal/geo"
)

// TestShardPlanePartitionEdgeCases drives the partition pass (the counting
// sort at one chunk and at three) through its degenerate inputs — every
// node dead, a single alive node, nodes sitting exactly on shard-boundary
// cell edges, and a population clustered so tightly that whole shard
// rectangles have zero residents — and checks each, and the 1x1 plan that
// partitions nothing, against the single-medium sequential run.
func TestShardPlanePartitionEdgeCases(t *testing.T) {
	const r2 = 10.0
	cases := []struct {
		name      string
		positions []geo.Point
		mover     Mover // nil keeps nodes pinned (boundary case)
		prep      func(e *Engine)
		grid      struct{ cols, rows int }
		wantEmpty bool // some shard rectangle must end the run resident-free
	}{
		{
			name: "all nodes dead",
			positions: []geo.Point{
				{X: 0, Y: 0}, {X: 8, Y: 0}, {X: 16, Y: 8}, {X: 24, Y: 16}, {X: 8, Y: 24}, {X: 0, Y: 16},
			},
			mover: roamMover{},
			prep: func(e *Engine) {
				for i := 0; i < e.NumNodes(); i++ {
					e.Crash(NodeID(i))
				}
			},
			grid:      struct{ cols, rows int }{2, 2},
			wantEmpty: true,
		},
		{
			name: "single alive node",
			positions: []geo.Point{
				{X: 0, Y: 0}, {X: 9, Y: 3}, {X: 18, Y: 9}, {X: 27, Y: 15}, {X: 9, Y: 21},
			},
			mover: roamMover{},
			prep: func(e *Engine) {
				for i := 0; i < e.NumNodes(); i++ {
					if i != 2 {
						e.Crash(NodeID(i))
					}
				}
			},
			grid:      struct{ cols, rows int }{3, 3},
			wantEmpty: true,
		},
		{
			// Cell size equals r2 = 10, so multiples of 10 sit exactly on
			// cell edges (and therefore on shard-rectangle edges). Pinned
			// movers keep them there for the whole run: every round's
			// partition must bin the edge cases identically to CellOf in
			// the sequential pass.
			name: "nodes exactly on shard-boundary cell edges",
			positions: []geo.Point{
				{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 20, Y: 0}, {X: 10, Y: 10},
				{X: 20, Y: 10}, {X: 0, Y: 20}, {X: 20, Y: 20}, {X: 30, Y: 10},
			},
			mover: nil,
			prep:  nil,
			grid:  struct{ cols, rows int }{2, 2},
		},
		{
			// Fit shrinks the occupied-cell bounding box to a couple of
			// cells; a 3x3 shard grid over it leaves rectangles owning no
			// cells at all. Their mediums must simply never be consulted.
			name: "zero-resident shard rectangles",
			positions: []geo.Point{
				{X: 0, Y: 0}, {X: 1, Y: 2}, {X: 2, Y: 1}, {X: 3, Y: 3}, {X: 1, Y: 1}, {X: 2.5, Y: 0.5},
			},
			mover:     nil,
			prep:      nil,
			grid:      struct{ cols, rows int }{3, 3},
			wantEmpty: true,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(opts ...Option) ([][]Reception, []geo.Point, []bool, *Engine) {
				e := NewEngine(diskMedium{r2: r2}, append([]Option{WithSeed(5)}, opts...)...)
				defer e.Close()
				nodes := make([]*sparseEcho, len(tc.positions))
				for i, p := range tc.positions {
					i := i
					e.Attach(p, tc.mover, func(env Env) Node {
						nodes[i] = &sparseEcho{env: env, burst: 2 + i%2}
						return nodes[i]
					})
				}
				if tc.prep != nil {
					tc.prep(e)
				}
				e.Run(6)
				heard := make([][]Reception, len(nodes))
				pos := make([]geo.Point, len(nodes))
				alive := make([]bool, len(nodes))
				for i, n := range nodes {
					heard[i] = n.heard
					pos[i] = e.Position(NodeID(i))
					alive[i] = e.Alive(NodeID(i))
				}
				return heard, pos, alive, e
			}

			wantHeard, wantPos, wantAlive, _ := run()
			type gridCase struct {
				cols, rows int
				wantEmpty  bool
			}
			for _, g := range []gridCase{{tc.grid.cols, tc.grid.rows, tc.wantEmpty}, {1, 1, false}} {
				for _, par := range []bool{false, true} {
					opts := []Option{WithRegionShards(g.cols, g.rows, r2, func() Medium {
						return diskMedium{r2: r2}
					})}
					label := fmt.Sprintf("%dx%d sequential", g.cols, g.rows)
					if par {
						opts = append(opts, WithWorkers(3))
						label = fmt.Sprintf("%dx%d parallel", g.cols, g.rows)
					}
					heard, pos, alive, e := run(opts...)
					if !reflect.DeepEqual(heard, wantHeard) {
						t.Fatalf("%s: sharded reception log diverged from single-medium run", label)
					}
					if !reflect.DeepEqual(pos, wantPos) {
						t.Fatalf("%s: sharded trajectories diverged", label)
					}
					if !reflect.DeepEqual(alive, wantAlive) {
						t.Fatalf("%s: sharded liveness diverged", label)
					}
					if g.wantEmpty {
						empty := 0
						for _, res := range e.plane.infos {
							if len(res) == 0 {
								empty++
							}
						}
						if empty == 0 {
							t.Fatalf("%s: expected at least one resident-free shard rectangle, all %d occupied",
								label, len(e.plane.infos))
						}
					}
				}
			}
		})
	}
}
