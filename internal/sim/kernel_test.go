package sim_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"vinfra/internal/geo"
	"vinfra/internal/mobility"
	"vinfra/internal/sim"
	"vinfra/internal/spec"
	"vinfra/internal/wire"
)

// The packed mobility kernel is held to the scalar step it repeats: every
// world below is stepped twice in lockstep, once with the kernel declining
// every pair (SetKernelOff), and the two must agree after every round.

// napper transmits when a draw from its own stream says so — so Transmit
// reads the stream right after the mobility phase wrote it — and naps now
// and then, a few rounds at a time, so the awake list and the shard
// partition change under the kernel while it keeps stepping the sleepers.
type napper struct {
	env sim.Env
}

var napMsg sim.Message = "n"

func (n *napper) Transmit(sim.Round) sim.Message {
	if n.env.Intn(4) == 0 {
		return napMsg
	}
	return nil
}

func (n *napper) Receive(r sim.Round, _ sim.Reception) {
	if (int(r)+int(n.env.ID()))%7 == 0 {
		n.env.SleepUntil(r + 1 + sim.Round(n.env.ID()%4))
	}
}

// mixedWorld attaches n devices on a 40x40 field, static and roaming
// interleaved by id: a fast model whose legs end every few dozen rounds,
// so turns and redraws fall among the kernel's pairs, and a slow one whose
// legs stay steady, in runs of uneven length so pairs straddle the two
// models and a static device. A few start beyond the field's edge. It
// schedules crashes through the run.
func mixedWorld(n int, opts []sim.Option) *sim.Engine {
	e := sim.NewEngine(&silence{}, append([]sim.Option{sim.WithSeed(3)}, opts...)...)
	for i := 0; i < n; i++ {
		at := geo.Point{X: float64(i%37) * 1.1, Y: float64(i/37) * 1.1}
		if i%97 == 0 {
			at.X = -3
		}
		e.Attach(at, mixedModel(i), func(env sim.Env) sim.Node { return &napper{env: env} })
	}
	for id := 5; id < n; id += 41 {
		e.CrashAt(sim.NodeID(id), sim.Round(10+id%50))
	}
	// Lay a leg toward +Inf over the second device of a few pairs under one
	// model: its first step is a packed one that puts it at NaN, which the
	// bounding box the kernel folds must step over, as stretch does.
	snap := e.Snapshot()
	for id := 101; id < n; id += 2 {
		if m := mixedModel(id); m != nil && m == mixedModel(id-1) {
			snap.Nodes[id].Mover = wire.AppendFloat64(wire.AppendFloat64(wire.AppendBool(nil, true), math.Inf(1)), 5)
			id += 300
		}
	}
	if err := e.Restore(snap); err != nil {
		panic(err)
	}
	return e
}

var (
	fastModel = &mobility.RandomWaypoint{Area: geo.Rect{Max: geo.Point{X: 40, Y: 40}}, VMax: 0.9}
	slowModel = &mobility.RandomWaypoint{Area: geo.Rect{Max: geo.Point{X: 40, Y: 40}}, VMax: 0.05}
)

// mixedModel is device i's model in mixedWorld, nil for a static one.
func mixedModel(i int) *mobility.RandomWaypoint {
	switch {
	case i%11 == 4 || i%13 == 0:
		return nil
	case (i/5)%3 == 1:
		return fastModel
	}
	return slowModel
}

// TestKernelMatchesScalarMixedWorld steps mixedWorld with the kernel on and
// off — five more devices join in round 30 — on the sequential engine, on
// two workers at the production grain, on three workers a node's grain
// apart, and on a 2x2 region-sharded plane, comparing every round.
func TestKernelMatchesScalarMixedWorld(t *testing.T) {
	for _, tc := range []struct {
		name  string
		grain int
		opts  func() []sim.Option
	}{
		{"sequential", sim.ProductionGrain, func() []sim.Option { return nil }},
		{"workers-2", sim.ProductionGrain, func() []sim.Option { return []sim.Option{sim.WithWorkers(2)} }},
		// A grain of 1 cuts the alive list into three chunks of uneven,
		// often odd, length.
		{"workers-3-grain-1", 1, func() []sim.Option { return []sim.Option{sim.WithWorkers(3)} }},
		{"sharded", sim.ProductionGrain, func() []sim.Option {
			return []sim.Option{sim.WithWorkers(2), sim.WithRegionShards(2, 2, 10, func() sim.Medium { return &silence{} })}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer sim.SetGrain(tc.grain)()
			defer sim.SetKernelOff(false)
			const n, rounds = 1301, 90
			on, off := mixedWorld(n, tc.opts()), mixedWorld(n, tc.opts())
			defer on.Close()
			defer off.Close()
			for r := 0; r < rounds; r++ {
				if r == 30 {
					for _, e := range []*sim.Engine{on, off} {
						for i := 0; i < 5; i++ {
							e.Attach(geo.Point{X: 20, Y: float64(i)}, fastModel, func(env sim.Env) sim.Node { return &napper{env: env} })
						}
					}
				}
				sim.SetKernelOff(true)
				off.Step()
				sim.SetKernelOff(false)
				on.Step()
				compareEngines(t, r, on, off)
			}
			if on.AliveCount() >= n {
				t.Fatalf("%d of %d devices alive: no crash struck", on.AliveCount(), n)
			}
			if c := on.Counts(); sim.KernelBuilt && c.Packed == 0 {
				t.Fatal("the kernel took no pair: the comparison saw the scalar step only")
			}
			if tc.name == "sharded" && on.Stats().HaloTransmissions == 0 {
				t.Fatal("no halo transmission: the bounding boxes went unexercised")
			}
		})
	}
}

// compareEngines requires the kernel-on engine to match the kernel-off one
// after round r: every position bit for bit, every leg and stream word, the
// halo count, and then the whole engine snapshot.
func compareEngines(t *testing.T, r int, on, off *sim.Engine) {
	t.Helper()
	for id := 0; id < on.NumNodes(); id++ {
		a, b := on.Position(sim.NodeID(id)), off.Position(sim.NodeID(id))
		if math.Float64bits(a.X) != math.Float64bits(b.X) || math.Float64bits(a.Y) != math.Float64bits(b.Y) {
			t.Fatalf("round %d node %d: at %v with the kernel, %v without", r, id, a, b)
		}
	}
	if a, b := on.Stats().HaloTransmissions, off.Stats().HaloTransmissions; a != b {
		t.Fatalf("round %d: %d halo transmissions with the kernel, %d without", r, a, b)
	}
	sa, sb := on.Snapshot(), off.Snapshot()
	for i := range sa.Nodes {
		if !bytes.Equal(sa.Nodes[i].Mover, sb.Nodes[i].Mover) || sa.Nodes[i].RNG != sb.Nodes[i].RNG {
			t.Fatalf("round %d node %d: leg %x stream %#x with the kernel, leg %x stream %#x without",
				r, i, sa.Nodes[i].Mover, sa.Nodes[i].RNG, sb.Nodes[i].Mover, sb.Nodes[i].RNG)
		}
	}
	if !bytes.Equal(sa.AppendTo(nil), sb.AppendTo(nil)) {
		t.Fatalf("round %d: the engine snapshots differ", r)
	}
}

// TestKernelMatchesScalarCity steps the 100k city document — the
// city-100k workloads' world — for 300 radio rounds with the kernel on and
// off, on the sequential and the region-sharded engine, and requires the
// same checkpoint digest at every virtual-round boundary.
func TestKernelMatchesScalarCity(t *testing.T) {
	if testing.Short() {
		t.Skip("two 100k-device worlds per engine")
	}
	if !sim.KernelBuilt {
		t.Skip("no packed kernel in this build: both sides would be the scalar step")
	}
	defer sim.SetGrain(sim.ProductionGrain)()
	defer sim.SetKernelOff(false)
	for _, eng := range []spec.Engine{{}, {Workers: 2, Shards: 4}} {
		t.Run(fmt.Sprintf("workers-%d-shards-%d", eng.Workers, eng.Shards), func(t *testing.T) {
			doc := spec.Spec{
				Version: spec.Version, Seed: 1, VRounds: 1 << 30,
				Grid:    spec.Grid{Cols: 15, Rows: 15},
				Devices: spec.Devices{Replicas: 3, Pingers: true, Listeners: 100_000},
				Engine:  eng,
			}
			on, off := mustBuild(doc), mustBuild(doc)
			defer on.Eng.Close()
			defer off.Eng.Close()
			for vr := 1; on.Eng.Round() < 300; vr++ {
				sim.SetKernelOff(true)
				off.StepVRound()
				sim.SetKernelOff(false)
				on.StepVRound()
				if a, b := sha256.Sum256(on.Checkpoint().Encode()), sha256.Sum256(off.Checkpoint().Encode()); a != b {
					t.Fatalf("virtual round %d: checkpoint digest %x with the kernel, %x without", vr, a[:8], b[:8])
				}
			}
		})
	}
}
