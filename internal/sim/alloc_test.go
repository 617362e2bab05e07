package sim

import (
	"testing"

	"vinfra/internal/geo"
)

// TestEngineStepSteadyStateAllocs gates the round loop's allocation budget:
// after warm-up, Engine.Step must run allocation-free on the engine's side
// (the NodeInfo view, transmission list and Transmit slots are reused
// buffers). Before buffer reuse this was 23 allocs/round (~2.6 MB); the
// gate keeps the win from silently regressing.
//
// Every configuration runs three populations. Static nodes (nil mover) are
// the original gate — which is blind to the mobility phase, so for four PRs
// it passed while Step built a method value (st.rng.Intn) per device per
// round. The drawing populations attach a mover that draws from rnd on every
// call, at 10k and at the 100k the city workloads run at.
func TestEngineStepSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, tc := range []struct {
		name   string
		opts   []Option
		budget float64
	}{
		// Sequential, parallel and region-sharded rounds all allocate
		// nothing once warm: the persistent worker runtime hands chunks to
		// parked helpers over preallocated channels (the old spawn-per-round
		// path cost ~64 allocs/round in goroutine and WaitGroup churn), and
		// the parallel partition reuses its counting-sort scratch.
		{"sequential", nil, 0},
		{"parallel", []Option{WithWorkers(4)}, 0},
		{"sharded-parallel", []Option{
			WithWorkers(4), WithParallel(),
			WithRegionShards(4, 2, 20, func() Medium { return &nullMedium{} }),
		}, 0},
		// One shard is the single-medium engine: same budget, and its plane
		// reads the engine's own views instead of holding copies.
		{"one-shard", []Option{
			WithRegionShards(1, 1, 20, func() Medium { return &nullMedium{} }),
		}, 0},
		{"one-shard-parallel", []Option{
			WithWorkers(2),
			WithRegionShards(1, 1, 20, func() Medium { return &nullMedium{} }),
		}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			steadyStateAllocs(t, tc.opts, tc.budget, 10_000, nil)
			t.Run("drawing-10k", func(t *testing.T) {
				steadyStateAllocs(t, tc.opts, tc.budget, 10_000, wanderMover{})
			})
			t.Run("drawing-100k", func(t *testing.T) {
				if testing.Short() {
					t.Skip("100k nodes")
				}
				steadyStateAllocs(t, tc.opts, tc.budget, 100_000, wanderMover{})
			})
		})
	}
}

func steadyStateAllocs(t *testing.T, opts []Option, budget float64, nodes int, mover Mover) {
	e := NewEngine(&nullMedium{}, append([]Option{WithSeed(1)}, opts...)...)
	defer e.Close()
	for i := 0; i < nodes; i++ {
		e.Attach(geo.Point{X: float64(i%500) * 0.5, Y: float64(i/500) * 0.5}, mover, func(env Env) Node {
			return &countNode{env: env}
		})
	}
	e.Run(3) // warm the reusable buffers and start the pool
	avg := testing.AllocsPerRun(5, func() { e.Step() })
	if avg > budget {
		t.Errorf("steady-state Step allocates %.1f times per round at %d nodes, want <= %v", avg, nodes, budget)
	}
	if sp := &e.plane; len(sp.mediums) == 1 {
		held := len(sp.rxs) + len(sp.cellX) + len(sp.cellY) + len(sp.owner)
		for s := range sp.infos {
			held += cap(sp.infos[s]) + cap(sp.cands[s])
		}
		if held != 0 {
			t.Errorf("one-shard plane holds %d buffered entries, want none (it aliases the engine's views)", held)
		}
	}
}
