package radio_test

import (
	"fmt"
	"testing"

	"vinfra/internal/cd"
	"vinfra/internal/cm"
	"vinfra/internal/geo"
	"vinfra/internal/radio"
	"vinfra/internal/sim"
	"vinfra/internal/vi"
	"vinfra/internal/wire"
)

// pingCounter is a virtual-node program that counts the client messages it
// hears and broadcasts the count when scheduled.
func pingCounter(sched vi.Schedule) func(vi.VNodeID) vi.Program {
	return func(v vi.VNodeID) vi.Program {
		return vi.Codec[uint64]{
			InitState: func(vi.VNodeID, geo.Point) uint64 { return 0 },
			Step:      func(n uint64, _ int, in vi.RoundInput) uint64 { return n + uint64(len(in.Msgs)) },
			Out: func(n uint64, vround int) *vi.Message {
				if !sched.ScheduledIn(v, vround-1) {
					return nil
				}
				return vi.Text(fmt.Sprintf("count=%d", n))
			},
			EncodeState: wire.AppendUvarint,
			DecodeState: func(d *wire.Decoder) (uint64, error) { return d.Uvarint(), d.Err() },
		}
	}
}

// TestFullStackGridEqualsScan is the medium's half of the determinism
// contract end to end: the complete emulation (a 2x1 grid of virtual nodes,
// three replicas each, a pinging client, backoff contention managers) on a
// medium pinned to the stamped grid and on one pinned to the scan — on the
// sequential engine and on the worker pool — leaves every replica in
// bit-identical state. (vi's TestFullStackParallelDeterminism is the
// engine's half, on the medium as production builds it.)
func TestFullStackGridEqualsScan(t *testing.T) {
	radii := geo.Radii{R1: 10, R2: 20}
	run := func(parallel bool, medium *radio.Medium) []string {
		locs := geo.Grid{Spacing: 6, Cols: 2, Rows: 1}.Locations()
		dep, err := vi.NewDeployment(vi.DeploymentConfig{
			Locations: locs,
			Radii:     radii,
			Program:   pingCounter(vi.BuildSchedule(locs, radii)),
			NewCM: func(v vi.VNodeID, env sim.Env) cm.Manager {
				return cm.NewBackoff(cm.BackoffConfig{})(env)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		opts := []sim.Option{sim.WithSeed(17)}
		if parallel {
			opts = append(opts, sim.WithParallel())
		}
		eng := sim.NewEngine(medium, opts...)
		defer eng.Close()

		var emulators []*vi.Emulator
		for _, loc := range locs {
			for i := 0; i < 3; i++ {
				pos := geo.Point{X: loc.X + 0.3*float64(i) - 0.3, Y: loc.Y + 0.2}
				eng.Attach(pos, nil, func(env sim.Env) sim.Node {
					em := dep.NewEmulator(env, true)
					emulators = append(emulators, em)
					return em
				})
			}
		}
		eng.Attach(geo.Point{X: 1, Y: -1.2}, nil, func(env sim.Env) sim.Node {
			return dep.NewClient(env, vi.ClientFunc(
				func(vr int, _ []vi.Message, _ bool) *vi.Message {
					return vi.Text(fmt.Sprintf("ping-%03d", vr))
				}))
		})

		const vrounds = 25
		eng.Run(vrounds * dep.Timing().RoundsPerVRound())

		states := make([]string, len(emulators))
		for i, em := range emulators {
			if em.Joined() {
				states[i] = string(em.StateBefore(vrounds + 1))
			}
		}
		return states
	}

	cfg := radio.Config{Radii: radii, Detector: cd.AC{}, Seed: 17}
	want := run(false, radio.Forced(cfg, radio.PathScan))
	joined := 0
	for _, s := range want {
		if s != "" {
			joined++
		}
	}
	if joined == 0 {
		t.Fatal("no replica joined: the comparison would be vacuous")
	}
	for _, v := range []struct {
		name     string
		parallel bool
		medium   *radio.Medium
	}{
		{"grid medium", false, radio.Forced(cfg, radio.PathGrid)},
		{"scan medium, engine parallel", true, radio.Forced(cfg, radio.PathScan)},
		{"grid medium, engine parallel", true, radio.Forced(cfg, radio.PathGrid)},
	} {
		got := run(v.parallel, v.medium)
		if len(got) != len(want) {
			t.Fatalf("%s: emulator counts differ", v.name)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: emulator %d diverged from the sequential scan run", v.name, i)
			}
		}
	}
}
