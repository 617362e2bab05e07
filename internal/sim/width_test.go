package sim

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"vinfra/internal/geo"
)

// The package's tests run at a grain of one node (TestMain), so their small
// worlds still fan out. The tests here are about the grain itself and put
// the production value back.

// TestParallelWidthFollowsWork pins the one place a chunk count is decided:
// a phase over work nodes runs in min(fanout, work/grain) chunks, at least
// one — so a second chunk appears at exactly two grains of work — and the
// chunks runChunks makes of that width tile the range, balanced.
func TestParallelWidthFollowsWork(t *testing.T) {
	defer SetGrain(ProductionGrain)()
	g := ProductionGrain
	for _, fan := range []int{1, 2, 3, 8} {
		e := NewEngine(&nullMedium{}, WithWorkers(fan))
		for _, work := range []int{0, g - 1, g, 2*g - 1, 2 * g, 100_000} {
			want := max(1, min(fan, work/g))
			k := e.width(work)
			if k != want {
				t.Fatalf("fan-out %d, work %d: width %d, want %d", fan, work, k, want)
			}
			before := e.handoffs
			chunks := chunksOf(func(rec func(lo, hi int)) {
				e.runChunks(work, k, func(_, lo, hi int) { rec(lo, hi) })
			})
			checkChunks(t, chunks, work, want)
			if got := e.handoffs - before; got != want-1 {
				t.Fatalf("fan-out %d, work %d: %d hand-offs for %d chunks", fan, work, got, want)
			}
			if (e.pool != nil) != (e.handoffs > 0) {
				t.Fatalf("fan-out %d, work %d: pool running = %v after %d hand-offs", fan, work, e.pool != nil, e.handoffs)
			}
		}
		e.Close()
	}
	if k := NewEngine(&nullMedium{}).width(100_000); k != 1 {
		t.Fatalf("an engine without WithParallel is %d chunks wide", k)
	}
}

// scanBounds is the pass partition used to make: the bounding box of every
// alive node, read off the NodeID-indexed view. The mobility chunks' merged
// boxes are held to it.
func scanBounds(e *Engine) geo.Rect {
	inf := math.Inf(1)
	b := geo.Rect{Min: geo.Point{X: inf, Y: inf}, Max: geo.Point{X: -inf, Y: -inf}}
	for i := range e.info {
		if in := &e.info[i]; in.Alive {
			b = stretch(b, in.At, in.At)
		}
	}
	return b
}

// TestShardedBoundsFromMobility: the box the partition fits the shard grid
// to — merged from the mobility chunks, over movers and static nodes alike —
// is the box a scan of every alive position finds, at every round of a
// 2 000-node roaming world with static nodes, sleepers and crashes, at every
// mobility width.
func TestShardedBoundsFromMobility(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprint(workers), func(t *testing.T) {
			e := NewEngine(nil, WithSeed(3), WithWorkers(workers),
				WithRegionShards(2, 2, 10, func() Medium { return &nullMedium{} }))
			defer e.Close()
			const n = 2000
			for i := 0; i < n; i++ {
				var mover Mover = roamMover{}
				if i%7 == 0 {
					mover = nil // static, some of them on the rim: they hold the box too
				}
				e.Attach(geo.Point{X: float64(i%50) * 2, Y: float64(i/50) * 2}, mover, func(env Env) Node {
					if i%3 == 0 {
						return &napNode{countNode{env: env}, 5}
					}
					return &countNode{env: env}
				})
			}
			for r := 0; r < 60; r++ {
				switch r % 4 {
				case 1:
					e.Crash(NodeID((r * 37) % n)) // interior and rim, movers and static
					e.Crash(NodeID(n - 1 - r))
				case 2:
					e.CrashAt(NodeID((r*91)%n), e.Round()+1)
				}
				e.Step()
				if got := len(e.plane.bounds); got != workers {
					t.Fatalf("round %d: %d mobility boxes, want one per chunk of %d", r, got, workers)
				}
				got := e.plane.bounds[0]
				for _, c := range e.plane.bounds[1:] {
					got = stretch(got, c.Min, c.Max)
				}
				if want := scanBounds(e); got != want {
					t.Fatalf("round %d: mobility chunks' box %v, a scan of the alive positions finds %v", r, got, want)
				}
			}
			if len(e.awake) == len(e.alive) || len(e.alive) > n-40 {
				t.Fatalf("%d alive, %d awake: the world lost its sleepers or its crashes", len(e.alive), len(e.awake))
			}
		})
	}
}

// grainWorld is n devices over a diskMedium world: roaming and static, and —
// with sleepers — every fourth a dutyNode; the rest never sleep, so without
// sleepers every phase of a round has all n to work on.
func grainWorld(n int, sleepers bool, opts ...Option) *Engine {
	e := NewEngine(diskMedium{r2: 10}, append([]Option{WithSeed(23)}, opts...)...)
	for k := 0; k < n; k++ {
		var mover Mover = roamMover{}
		if k%5 == 0 {
			mover = nil
		}
		e.Attach(geo.Point{X: float64(k%24) * 6.5, Y: float64(k/24) * 6.5}, mover, func(env Env) Node {
			if sleepers && k%4 == 3 {
				return &dutyNode{env: env, cycle: 4 + k%4, on: 1 + k%2}
			}
			return &sparseEcho{env: env, burst: 5 + k%3}
		})
	}
	return e
}

// TestParallelGrainBoundaryEqualsSequential steps worlds just below, at and
// just above the point where a phase gets its second chunk — grain−1, grain
// and 2·grain+1 devices, at the production grain — and holds every fan-out
// bound and a 2x2 shard grid to the sequential engine's snapshot bytes after
// every radio round. Two crashes on the way take the largest world back
// under two grains, so its phases narrow mid-run; with sleepers, mobility
// (the alive list) and the other phases (the awake list) are different
// widths in the same round.
func TestParallelGrainBoundaryEqualsSequential(t *testing.T) {
	defer SetGrain(ProductionGrain)()
	g := ProductionGrain
	shards := WithRegionShards(2, 2, 10, func() Medium { return diskMedium{r2: 10} })
	const rounds = 24
	run := func(n int, sleepers bool, opts ...Option) (snaps [][]byte, handoffs int) {
		e := grainWorld(n, sleepers, opts...)
		defer e.Close()
		for r := 0; r < rounds; r++ {
			if r == rounds/2 {
				e.Crash(NodeID(n / 2))
				e.Crash(NodeID(n - 1))
			}
			e.Step()
			s := e.Snapshot() // the engines differ in these, and in nothing else:
			s.ShardCols, s.ShardRows, s.Stats.HaloTransmissions = 0, 0, 0
			snaps = append(snaps, s.AppendTo(nil))
		}
		return snaps, e.handoffs
	}
	for _, n := range []int{g - 1, g, 2*g + 1} {
		for _, sleepers := range []bool{false, true} {
			want, _ := run(n, sleepers)
			for name, opts := range map[string][]Option{
				"workers-2":          {WithWorkers(2)},
				"workers-3":          {WithWorkers(3)},
				"workers-8":          {WithWorkers(8)},
				"2x2-shards":         {shards},
				"2x2-shards-workers": {shards, WithWorkers(3)},
			} {
				got, handoffs := run(n, sleepers, opts...)
				for r := range want {
					if !bytes.Equal(got[r], want[r]) {
						t.Fatalf("%d devices, sleepers %v, %s: snapshot after radio round %d differs from the sequential engine's", n, sleepers, name, r)
					}
				}
				if fans := name != "2x2-shards" && n >= 2*g; fans != (handoffs > 0) {
					t.Fatalf("%d devices, sleepers %v, %s: %d hand-offs; a chunk goes to a helper from two grains (%d devices) up, and only then", n, sleepers, name, handoffs, 2*g)
				}
			}
		}
	}
}
