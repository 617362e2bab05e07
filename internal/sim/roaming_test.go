package sim_test

import (
	"testing"

	"vinfra/internal/cd"
	"vinfra/internal/det"
	"vinfra/internal/geo"
	"vinfra/internal/mobility"
	"vinfra/internal/radio"
	"vinfra/internal/sim"
)

// This file holds the engine tests that need a real mobility model or a real
// medium, which the in-package tests cannot import (both import sim).

// listener is a receive-only device; beacon also broadcasts every round.
type listener struct{ heard int }

func (l *listener) Transmit(sim.Round) sim.Message { return nil }
func (l *listener) Receive(_ sim.Round, rx sim.Reception) {
	l.heard += len(rx.Msgs)
}

type beacon struct{ listener }

var beaconMsg sim.Message = "b"

func (*beacon) Transmit(sim.Round) sim.Message { return beaconMsg }

// dozer is a listener on the city clients' duty cycle, ten rounds long: on
// for two, asleep for eight, every dozer in step — so the awake list swings
// between everyone and the beacons alone. A staggered dozer is the replicas'
// side of that world instead: on for two rounds in ninety, out of step with
// its neighbours, so every round some wake and some fall asleep. A dozer
// with neither falls asleep for good after its first round.
type dozer struct {
	listener
	env              sim.Env
	staggered, ended bool
}

func (d *dozer) Receive(r sim.Round, rx sim.Reception) {
	d.listener.Receive(r, rx)
	if d.ended {
		d.env.SleepUntil(1 << 30)
		return
	}
	cycle, phase := 10, int(r)
	if d.staggered {
		cycle, phase = 90, int(r)+int(d.env.ID())
	}
	if off := phase % cycle; off > 0 {
		d.env.SleepUntil(r + sim.Round(cycle-off))
	}
}

// The populations of roamingCity.
const (
	alwaysOn = iota
	dutyCycled
	staggered
	asleep
)

// silence is a medium nobody hears anything through, so the gate below
// counts the engine's allocations only. Its buffer has headroom for the
// same reason radio.Medium's does: a shard's resident count drifts.
type silence struct{ out []sim.Reception }

func (m *silence) Deliver(r sim.Round, _ []sim.Transmission, rxs []sim.NodeInfo) []sim.Reception {
	if cap(m.out) < len(rxs) {
		m.out = make([]sim.Reception, len(rxs), 2*len(rxs))
	}
	out := m.out[:len(rxs)]
	for i := range out {
		out[i] = sim.Reception{}
	}
	return out
}

// roamingCity attaches n listeners roaming under the city workloads' model
// (a 90x90 field, vmax 0.02) — dozers unless alwaysOn — and four static
// beacons.
func roamingCity(e *sim.Engine, n int, population int) {
	city := &mobility.RandomWaypoint{Area: geo.Rect{Max: geo.Point{X: 90, Y: 90}}, VMax: 0.02}
	rng := det.NewStream(7)
	for i := 0; i < n; i++ {
		pos := geo.Point{X: rng.Float64() * 90, Y: rng.Float64() * 90}
		e.Attach(pos, city, func(env sim.Env) sim.Node {
			if population == alwaysOn {
				return &listener{}
			}
			return &dozer{env: env, staggered: population == staggered, ended: population == asleep}
		})
	}
	for _, p := range []geo.Point{{X: 20, Y: 20}, {X: 70, Y: 20}, {X: 20, Y: 70}, {X: 70, Y: 70}} {
		e.Attach(p, nil, func(sim.Env) sim.Node { return &beacon{} })
	}
}

// TestEngineStepSteadyStateAllocsRoaming is the steady-state allocation gate with the
// mobility model the city workloads use: every listener draws a
// destination from its own stream in its first round and on every arrival,
// and the engine must hand its model that stream without allocating — on the sequential, the
// parallel and the region-sharded engine, at 10k and at 100k devices, with
// the listeners always on, with them asleep eight rounds in ten, and with
// them up two rounds in ninety on staggered phases.
func TestEngineStepSteadyStateAllocsRoaming(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer sim.SetGrain(sim.ProductionGrain)() // the budget is for the engine as it ships
	for _, tc := range []struct {
		name string
		opts []sim.Option
	}{
		{"sequential", nil},
		{"parallel", []sim.Option{sim.WithWorkers(4)}},
		{"sharded-parallel", []sim.Option{
			sim.WithWorkers(4),
			sim.WithRegionShards(2, 2, 20, func() sim.Medium { return &silence{} }),
		}},
	} {
		for _, n := range []int{10_000, 100_000} {
			for population, suffix := range []string{alwaysOn: "", dutyCycled: "-duty-cycled", staggered: "-staggered"} {
				name := tc.name + "-10k" + suffix
				if n == 100_000 {
					name = tc.name + "-100k" + suffix
				}
				t.Run(name, func(t *testing.T) {
					if n == 100_000 && testing.Short() {
						t.Skip("100k nodes")
					}
					e := sim.NewEngine(&silence{}, append([]sim.Option{sim.WithSeed(1)}, tc.opts...)...)
					defer e.Close()
					roamingCity(e, n, population)
					warm, measured := 12, 11 // a whole duty cycle each: everyone wakes, and sleeps again
					if population == staggered {
						warm, measured = 2*90+2, 95
					}
					e.Run(warm) // warm the reusable buffers and start the pool
					if avg := testing.AllocsPerRun(measured, func() { e.Step() }); avg > 0 {
						t.Errorf("steady-state Step allocates %.1f times per round at %d roaming nodes, want 0", avg, n)
					}
				})
			}
		}
	}
}

// BenchmarkEngineMobility is a city-100k round with little in it but the
// mobility phase: the 100k listeners roam, asleep, and the medium carries
// the beacons' four transmissions to nobody. BenchmarkEngineMobilityScalar
// is the same round with the packed kernel off, every node on the scalar
// step.
func BenchmarkEngineMobility(b *testing.B) { benchMobility(b) }

func BenchmarkEngineMobilityScalar(b *testing.B) {
	sim.SetKernelOff(true)
	defer sim.SetKernelOff(false)
	benchMobility(b)
}

func benchMobility(b *testing.B) {
	e := sim.NewEngine(&silence{}, sim.WithSeed(1))
	roamingCity(e, 100_000, asleep)
	e.Run(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEngineStep100kRoaming is one radio round of the city-100k
// workload without the VI stack: 100k RandomWaypoint listeners and four
// beacons over a real radio.Medium. Run with -benchmem: it allocates
// nothing, the listeners in range of exactly one beacon included (15 661
// Msgs slices a round before the medium's arena).
func BenchmarkEngineStep100kRoaming(b *testing.B) {
	m := radio.MustMedium(radio.Config{Radii: geo.Radii{R1: 10, R2: 20}, Detector: cd.AC{}, Seed: 1})
	e := sim.NewEngine(m, sim.WithSeed(1))
	roamingCity(e, 100_000, alwaysOn)
	e.Run(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEngineStep100kDutyCycled is the same round with the listeners on
// the clients' duty cycle — on for two rounds in ten — so, next to
// BenchmarkEngineStep100kRoaming, what a sleeping device still costs: its
// mobility step and an empty reception. Run it for a multiple of ten rounds.
func BenchmarkEngineStep100kDutyCycled(b *testing.B) {
	m := radio.MustMedium(radio.Config{Radii: geo.Radii{R1: 10, R2: 20}, Detector: cd.AC{}, Seed: 1})
	e := sim.NewEngine(m, sim.WithSeed(1))
	roamingCity(e, 100_000, dutyCycled)
	e.Run(10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEngineStep100kStaggered is the same round with the listeners on
// the replicas' kind of duty cycle instead — two rounds in ninety, every
// device on a phase of its own — so, next to the two above, what the
// engine's own bookkeeping costs when the awake list changes every round:
// some two thousand devices up, a thousand filed under ninety pending wake
// rounds and a thousand popped. Run it for a multiple of ninety rounds.
func BenchmarkEngineStep100kStaggered(b *testing.B) {
	m := radio.MustMedium(radio.Config{Radii: geo.Radii{R1: 10, R2: 20}, Detector: cd.AC{}, Seed: 1})
	e := sim.NewEngine(m, sim.WithSeed(1))
	roamingCity(e, 100_000, staggered)
	e.Run(90)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// TestMobilityKernelTakesSteadyLegs is the packed kernel's counted gate: in
// a steady window of the city — 100k listeners under one model, past the
// round in which each drew its first destination, with arrivals rare — at
// least 99 % of node-steps must be taken two at a time, on the one-shard
// and the region-sharded plane. A layout change that silently sends every
// node to the scalar step fails here, not only in a benchmark.
func TestMobilityKernelTakesSteadyLegs(t *testing.T) {
	if !sim.KernelBuilt {
		t.Skip("the packed kernel is amd64's, and race builds leave it out")
	}
	if testing.Short() {
		t.Skip("100k nodes")
	}
	defer sim.SetGrain(sim.ProductionGrain)()
	for _, tc := range []struct {
		name string
		opts []sim.Option
	}{
		{"sequential", nil},
		{"sharded-parallel", []sim.Option{
			sim.WithWorkers(2),
			sim.WithRegionShards(2, 2, 20, func() sim.Medium { return &silence{} }),
		}},
	} {
		e := sim.NewEngine(&silence{}, append([]sim.Option{sim.WithSeed(1)}, tc.opts...)...)
		const n, rounds = 100_000, 20
		roamingCity(e, n, asleep)
		e.Run(1)
		before := e.Counts().Packed
		e.Run(rounds)
		e.Close()
		packed, steps := e.Counts().Packed-before, rounds*n
		t.Logf("%s: %d of %d node-steps packed (%.2f %%)", tc.name, packed, steps, 100*float64(packed)/float64(steps))
		if packed*100 < steps*99 {
			t.Errorf("%s: the kernel took %d of %d node-steps, want at least 99 %%", tc.name, packed, steps)
		}
	}
}
