package sim

import (
	"testing"

	"vinfra/internal/geo"
)

// TestEngineStepSteadyStateAllocs gates the round loop's allocation budget:
// after warm-up, Engine.Step at 10k nodes must run allocation-free on the
// engine's side (the NodeInfo view, transmission list and Transmit slots
// are reused buffers). Before buffer reuse this was 23 allocs/round
// (~2.6 MB); the gate keeps the win from silently regressing.
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
			e := NewEngine(&nullMedium{}, append([]Option{WithSeed(1)}, tc.opts...)...)
			defer e.Close()
			for i := 0; i < 10_000; i++ {
				e.Attach(geo.Point{X: float64(i%500) * 0.5, Y: float64(i/500) * 0.5}, nil, func(env Env) Node {
					return &countNode{env: env}
				})
			}
			e.Run(3) // warm the reusable buffers and start the pool
			avg := testing.AllocsPerRun(5, func() { e.Step() })
			if avg > tc.budget {
				t.Errorf("steady-state Step allocates %.1f times per round at 10k nodes, want <= %v", avg, tc.budget)
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
		})
	}
}
