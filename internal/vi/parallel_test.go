package vi_test

import (
	"fmt"
	"testing"

	"vinfra/internal/cd"
	"vinfra/internal/cm"
	"vinfra/internal/det"
	"vinfra/internal/geo"
	"vinfra/internal/mobility"
	"vinfra/internal/radio"
	"vinfra/internal/sim"
	"vinfra/internal/vi"
	"vinfra/internal/wire"
)

// TestFullStackParallelDeterminism runs the complete emulation (grid of
// virtual nodes, clients, backoff contention managers) on the sequential
// engine and on the worker pool and requires bit-identical replica states.
// This is the repository's determinism contract end to end; the medium's
// half of it — the same deployment on a medium pinned to the grid and on
// one pinned to the scan — is internal/radio's TestFullStackGridEqualsScan,
// where the hook that pins a medium lives.
func TestFullStackParallelDeterminism(t *testing.T) {
	run := func(parallel bool) []string {
		locs := geo.Grid{Spacing: 6, Cols: 2, Rows: 1}.Locations()
		dep, err := vi.NewDeployment(vi.DeploymentConfig{
			Locations: locs,
			Radii:     testRadii,
			Program:   counterProgram,
			NewCM: func(v vi.VNodeID, env sim.Env) cm.Manager {
				return cm.NewBackoff()(env)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		medium := radio.MustMedium(radio.Config{
			Radii:    testRadii,
			Detector: cd.AC{},
			Seed:     17,
		})
		opts := []sim.Option{sim.WithSeed(17)}
		if parallel {
			opts = append(opts, sim.WithWorkers(0))
		}
		eng := sim.NewEngine(medium, opts...)

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

	want, got := run(false), run(true)
	if len(got) != len(want) {
		t.Fatal("engine parallel: emulator counts differ")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("engine parallel: emulator %d diverged from the sequential run", i)
		}
	}
}

// TestCarvedReplicasParallelEqualsSequential holds the carving of replicas
// to the goroutine that builds the world. A 4x4 deployment reserves 248
// replicas (Deployment.Reserve) and bootstraps 48 statically, three a
// region; 560 more replicas roam the field from round 0, fast enough to
// cross a region border most virtual rounds, half of them bootstrapped where
// they start. So regions are entered, and managers built, on the parallel
// engine's workers from the first virtual round on (every emulator is awake
// in the client phase, more than two chunks of the engine's grain), while
// the reservation still holds cores and managers. Mid-run, 280 roamers join
// at virtual round 2 and a static replica every other virtual round, more
// than the whole reservation. Under both leader regimes, the engine
// snapshot after every virtual round on two workers must equal the
// sequential run's without a reservation, and under -race a carve on a
// worker is a reported race.
func TestCarvedReplicasParallelEqualsSequential(t *testing.T) {
	const roamers, joiners, vrounds = 560, 280, 12
	locs := geo.Grid{Spacing: 6, Cols: 4, Rows: 4}.Locations()
	field := geo.Rect{Min: geo.Point{X: -3, Y: -3}, Max: geo.Point{X: 21, Y: 21}}
	for _, fixed := range []bool{true, false} {
		digests := func(workers int) []uint64 {
			cfg := vi.DeploymentConfig{Locations: locs, Radii: testRadii, Program: counterProgram, VMax: 0.02}
			if fixed {
				cfg.Leaders = make([]sim.NodeID, len(locs))
				for v := range cfg.Leaders {
					cfg.Leaders[v] = sim.NodeID(3 * v)
				}
			}
			dep, err := vi.NewDeployment(cfg)
			if err != nil {
				t.Fatal(err)
			}
			medium := radio.MustMedium(radio.Config{Radii: testRadii, Detector: cd.AC{}, Seed: 3})
			opts := []sim.Option{sim.WithSeed(3)}
			if workers > 0 {
				opts = append(opts, sim.WithWorkers(workers))
				dep.Reserve(len(locs)*3 + 200)
			}
			eng := sim.NewEngine(medium, opts...)
			defer eng.Close()
			attach := func(pos geo.Point, wp *mobility.RandomWaypoint, bootstrap bool) {
				eng.Attach(pos, wp, func(env sim.Env) sim.Node { return dep.NewEmulator(env, bootstrap) })
			}
			for _, loc := range locs {
				for i := 0; i < 3; i++ {
					attach(geo.Point{X: loc.X + 0.3*float64(i) - 0.3, Y: loc.Y + 0.2}, nil, true)
				}
			}
			for v, loc := range locs {
				eng.Attach(geo.Point{X: loc.X + 1.2, Y: loc.Y - 1}, nil, func(env sim.Env) sim.Node {
					return dep.NewClient(env, vi.ClientFunc(func(vr int, _ []vi.Message, _ bool) *vi.Message {
						if vr%4 != v%4 {
							return nil
						}
						return vi.Text(fmt.Sprintf("ping-%02d-%04d", v, vr))
					}))
				})
			}
			roam := &mobility.RandomWaypoint{Area: field, VMax: 0.3}
			rng := det.NewStream(7)
			attachRoamers := func(n int) {
				for i := 0; i < n; i++ {
					pos := geo.Point{X: field.Min.X + rng.Float64()*field.Width(), Y: field.Min.Y + rng.Float64()*field.Height()}
					attach(pos, roam, i%2 == 0)
				}
			}
			attachRoamers(roamers)
			var ds []uint64
			for vr := 0; vr < vrounds; vr++ {
				if vr == 2 {
					attachRoamers(joiners)
				}
				if vr%2 == 1 {
					loc := locs[vr%len(locs)]
					attach(geo.Point{X: loc.X + 0.4, Y: loc.Y + 0.2}, nil, vr%4 == 1)
				}
				eng.Run(dep.Timing().RoundsPerVRound())
				ds = append(ds, uint64(wire.DigestOf(eng.Snapshot().AppendTo(nil))))
			}
			return ds
		}
		want, got := digests(0), digests(2)
		for vr := range want {
			if got[vr] != want[vr] {
				t.Fatalf("fixed=%v: vround %d: parallel digest %x, sequential %x", fixed, vr+1, got[vr], want[vr])
			}
		}
	}
}
