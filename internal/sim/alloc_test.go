package sim

import (
	"runtime"
	"testing"

	"vinfra/internal/geo"
	"vinfra/internal/mobility"
)

// TestEngineStepSteadyStateAllocs gates the round loop's allocation budget:
// after warm-up, Engine.Step must run allocation-free on the engine's side
// (the NodeInfo view, transmission list and Transmit slots are reused
// buffers). Before buffer reuse this was 23 allocs/round (~2.6 MB); the
// gate keeps the win from silently regressing.
//
// Every configuration runs three populations. Static nodes (no waypoint
// model) are the original gate — which is blind to the mobility phase, so
// for four PRs it passed while Step built a method value (st.rng.Intn) per
// device per round. The drawing populations roam under a model so fast for
// its field that a device arrives, and draws its next destination from its
// own stream, every round or two, at 10k and at the 100k the city workloads
// run at. The duty-cycled ones are napNodes, on for two rounds in ten on a
// phase set by their ID, so every round a tenth of the devices falls asleep
// and a tenth wakes: the awake list is rebuilt every round and must reuse its
// buffer. The staggered ones nap on a ninety-round cycle — a virtual round's
// worth of distinct wake rounds pending at once, neighbours never sharing
// one — so wake files are opened and popped every round and must cost
// nothing to recycle, like the one-shard plane's receiver view.
func TestEngineStepSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer SetGrain(ProductionGrain)() // the budget is for the engine as it ships
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
			WithWorkers(4),
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
			steadyStateAllocs(t, tc.opts, tc.budget, 10_000, nil, 0)
			for _, pop := range []struct {
				name  string
				cycle int
			}{{"drawing", 0}, {"duty-cycled", 10}, {"staggered", 90}} {
				t.Run(pop.name+"-10k", func(t *testing.T) {
					steadyStateAllocs(t, tc.opts, tc.budget, 10_000, drawing, pop.cycle)
				})
				t.Run(pop.name+"-100k", func(t *testing.T) {
					if testing.Short() {
						t.Skip("100k nodes")
					}
					steadyStateAllocs(t, tc.opts, tc.budget, 100_000, drawing, pop.cycle)
				})
			}
		})
	}
}

// napNode is a countNode whose radio is on for two rounds in cycle.
type napNode struct {
	countNode
	cycle int
}

func (n *napNode) Receive(r Round, _ Reception) {
	n.received++
	if off := (int(r) + int(n.env.ID())) % n.cycle; off > 0 {
		n.env.SleepUntil(r + Round(n.cycle-off))
	}
}

// drawing is the drawing populations' model: legs across a 250x100 field —
// the field steadyStateAllocs lays 100k devices over — at 100 a round.
var drawing = &mobility.RandomWaypoint{Area: geo.Rect{Max: geo.Point{X: 250, Y: 100}}, VMax: 100}

// steadyStateAllocs measures Step on nodes devices roaming under wp (nil:
// static); cycle > 0 makes them napNodes on that cycle.
func steadyStateAllocs(t *testing.T, opts []Option, budget float64, nodes int, wp *mobility.RandomWaypoint, cycle int) {
	e := NewEngine(&nullMedium{}, append([]Option{WithSeed(1)}, opts...)...)
	defer e.Close()
	for i := 0; i < nodes; i++ {
		e.Attach(geo.Point{X: float64(i%500) * 0.5, Y: float64(i/500) * 0.5}, wp, func(env Env) Node {
			if cycle > 0 {
				return &napNode{countNode{env: env}, cycle}
			}
			return &countNode{env: env}
		})
	}
	e.Run(2*cycle + 12) // warm the reusable buffers (two whole duty cycles) and start the pool
	if up := len(e.awake); cycle > 0 && (up < 2*nodes/cycle || up > 2*nodes/cycle+2 || e.asleep != nodes-up) {
		t.Fatalf("%d of %d napNodes awake, %d counted asleep; want two in %d", up, nodes, e.asleep, cycle)
	}
	avg := testing.AllocsPerRun(cycle+5, func() { e.Step() })
	if avg > budget {
		t.Errorf("steady-state Step allocates %.1f times per round at %d nodes, want <= %v", avg, nodes, budget)
	}
	if sp := &e.plane; len(sp.mediums) == 1 {
		held := len(sp.rxs) + len(sp.owner)
		for s := range sp.slots {
			held += cap(sp.slots[s]) + cap(sp.cands[s])
		}
		if cycle == 0 {
			held += cap(sp.infos[0]) // everyone awake: the receiver list is e.info itself
		}
		if held != 0 {
			t.Errorf("one-shard plane holds %d buffered entries, want none (it is handed the engine's views)", held)
		}
	}
}

// TestParallelStepAfterRespawnAllocsNothing: a device dies and another is
// attached in its place — a storm front's respawn — and the next round, fanned
// out, allocates nothing. The Transmit slots used to be indexed by NodeID and
// remade at exact size whenever a node had been attached since: 16 B for every
// node ever attached, allocated and cleared, after every front.
func TestParallelStepAfterRespawnAllocsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer SetGrain(ProductionGrain)()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun does
	e := NewEngine(&nullMedium{}, WithSeed(1), WithWorkers(4))
	defer e.Close()
	attach := func() {
		e.Attach(geo.Point{X: float64(e.NumNodes() % 50)}, roam, func(env Env) Node { return &countNode{env: env} })
	}
	for i := 0; i < 1000; i++ {
		attach()
	}
	e.Run(5)
	e.Crash(999) // warm the receiver view a world with a dead node in it needs
	attach()
	e.Run(2)
	if e.handoffs == 0 {
		t.Fatal("a 1 000-node round under WithWorkers(4) never fanned out")
	}
	var before, after runtime.MemStats
	for i := 0; i < 40; i++ {
		e.Crash(NodeID(3 * i))
		attach()
		runtime.ReadMemStats(&before)
		e.Step()
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Fatalf("respawn %d: the round after it made %d allocations (%d B), want none", i, n, after.TotalAlloc-before.TotalAlloc)
		}
	}
}

// TestAttachRoamingAllocsAsStatic: a roaming device costs the engine no heap
// object a static one does not — its leg is part of its slab entry and its
// model is shared — so attaching 4 096 of them allocates exactly as often as
// attaching 4 096 static ones. A per-device mover was one object each.
func TestAttachRoamingAllocsAsStatic(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	attach := func(wp *mobility.RandomWaypoint) float64 {
		// Twenty runs: the average is truncated, so a stray allocation of the
		// runtime's own during one of them does not show.
		return testing.AllocsPerRun(20, func() {
			e := NewEngine(&nullMedium{})
			for i := 0; i < 4096; i++ {
				e.Attach(geo.Point{X: float64(i % 64), Y: float64(i / 64)}, wp, func(env Env) Node { return &countNode{env: env} })
			}
		})
	}
	static, roaming := attach(nil), attach(drawing)
	if roaming != static {
		t.Errorf("attaching 4096 roaming devices allocates %v times, 4096 static ones %v: want the same", roaming, static)
	}
	t.Logf("%v allocations to attach 4096 devices, roaming or static", static)
}

// TestAttachAfterReserveAllocsNothing is the counted gate on construction:
// once Reserve has announced the population, attaching it — roaming or
// static, with a build function that allocates nothing of its own — costs
// the engine no allocation at all: no slice grows and no slab is carved.
func TestAttachAfterReserveAllocsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const n, runs = 4096, 4
	dud := &countNode{}
	build := func(Env) Node { return dud }
	for _, wp := range []*mobility.RandomWaypoint{nil, drawing} {
		e := NewEngine(&nullMedium{})
		// AllocsPerRun calls its function once more than it counts.
		e.Reserve((runs + 1) * n)
		allocs := testing.AllocsPerRun(runs, func() {
			for i := 0; i < n; i++ {
				e.Attach(geo.Point{X: float64(i % 64), Y: float64(i / 64)}, wp, build)
			}
		})
		if allocs != 0 {
			t.Errorf("roaming %v: attaching %d reserved devices allocates %v times, want 0", wp != nil, n, allocs)
		}
		if got := e.NumNodes(); got != (runs+1)*n {
			t.Fatalf("attached %d devices, want %d", got, (runs+1)*n)
		}
	}
}
