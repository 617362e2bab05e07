package sim

import (
	"testing"

	"vinfra/internal/geo"
)

func benchEngine(b *testing.B, nodes int, parallel bool) {
	defer SetGrain(ProductionGrain)() // measure what ships, not the tests' grain of one
	opts := []Option{WithSeed(1)}
	if parallel {
		opts = append(opts, WithParallel())
	}
	e := NewEngine(perfectMedium{}, opts...)
	for i := 0; i < nodes; i++ {
		e.Attach(geo.Point{X: float64(i)}, nil, func(env Env) Node {
			return &echoNode{env: env}
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func BenchmarkEngineStep8(b *testing.B)          { benchEngine(b, 8, false) }
func BenchmarkEngineStep64(b *testing.B)         { benchEngine(b, 64, false) }
func BenchmarkEngineStep64Parallel(b *testing.B) { benchEngine(b, 64, true) }

// nullMedium hears nothing: it isolates the engine's own per-round fan-out
// cost from delivery cost (internal/radio's benchmarks cover the latter).
// Like radio.Medium it reuses its reception slice across rounds (with the
// same headroom, so a shard whose resident count drifts upward does not
// reallocate), and the benchmarks and the allocation gate see the engine's
// own allocations.
type nullMedium struct{ out []Reception }

func (m *nullMedium) Deliver(r Round, _ []Transmission, rxs []NodeInfo) []Reception {
	if cap(m.out) < len(rxs) {
		m.out = make([]Reception, len(rxs), len(rxs)+len(rxs)/8)
	}
	out := m.out[:len(rxs)]
	for i := range out {
		out[i] = Reception{}
	}
	return out
}

// benchMsg is a shared pre-boxed message: transmitting it allocates
// nothing, so the large benchmarks measure the engine, not boxing.
var benchMsg Message = "m"

// countNode transmits every round and counts receptions without retaining
// them, so large benchmarks run in constant memory.
type countNode struct {
	env      Env
	received int
}

func (n *countNode) Transmit(Round) Message   { return benchMsg }
func (n *countNode) Receive(Round, Reception) { n.received++ }

// The 1k/10k sizes track the round-delivery scaling work: they measure the
// engine's fan-out overhead at emulator scale.
func benchEngineLarge(b *testing.B, nodes int, parallel bool) {
	defer SetGrain(ProductionGrain)()
	opts := []Option{WithSeed(1)}
	if parallel {
		opts = append(opts, WithParallel())
	}
	e := NewEngine(&nullMedium{}, opts...)
	for i := 0; i < nodes; i++ {
		e.Attach(geo.Point{X: float64(i)}, nil, func(env Env) Node {
			return &countNode{env: env}
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func BenchmarkEngineStep1k(b *testing.B)          { benchEngineLarge(b, 1_000, false) }
func BenchmarkEngineStep1kParallel(b *testing.B)  { benchEngineLarge(b, 1_000, true) }
func BenchmarkEngineStep10k(b *testing.B)         { benchEngineLarge(b, 10_000, false) }
func BenchmarkEngineStep10kParallel(b *testing.B) { benchEngineLarge(b, 10_000, true) }

// benchEngineSharded measures a region-sharded parallel round (partition +
// per-shard collect/deliver) on an 8-shard grid, with the nodes spread over
// the shard rectangles, on the persistent worker runtime.
func benchEngineSharded(b *testing.B, nodes int) {
	defer SetGrain(ProductionGrain)()
	e := NewEngine(nil,
		WithSeed(1),
		WithRegionShards(4, 2, 20, func() Medium { return &nullMedium{} }),
		WithParallel(),
		WithWorkers(8),
	)
	defer e.Close()
	cols := 1
	for cols*cols < nodes {
		cols++
	}
	for i := 0; i < nodes; i++ {
		e.Attach(geo.Point{X: float64(i%cols) * 1.6, Y: float64(i/cols) * 1.6}, nil, func(env Env) Node {
			return &countNode{env: env}
		})
	}
	e.Run(2) // warm buffers; start the pool
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func BenchmarkEngineStepSharded(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		name := "10k"
		if n == 100_000 {
			name = "100k"
		}
		b.Run(name, func(b *testing.B) { benchEngineSharded(b, n) })
	}
}

func BenchmarkEngineMobility(b *testing.B) {
	e := NewEngine(perfectMedium{})
	for i := 0; i < 32; i++ {
		e.Attach(geo.Point{X: float64(i)}, driftMover{}, func(Env) Node {
			return &silentNode{}
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
