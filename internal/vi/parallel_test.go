package vi_test

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"vinfra/internal/cd"
	"vinfra/internal/cha"
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
// virtual nodes, clients, regional contention managers) on the sequential
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

// TestHooksOnHelpersEqualSequential runs the emulator hooks on the parallel
// engine's helper goroutines. One virtual node at the origin, with R1 = 100
// and R2 = 200, has a leader margin of 25 at VMax 0; 600 bootstrapped
// replicas stand inside it under a fixed leader. The virtual node is
// scheduled in every virtual round, so all 600 are awake in its ballot and
// veto phases — more than the two grains (512 nodes) the engine needs
// before it hands a chunk to a helper — and OnBallot and OnOutput fire on
// two goroutines at once. The taps count under a lock; their counts, and
// the engine snapshot digest, must equal the sequential run's after every
// virtual round, the parallel run's taps must have fired on more than one
// goroutine, and under -race a hook unsafe to share is a reported race.
func TestHooksOnHelpersEqualSequential(t *testing.T) {
	const replicas, vrounds = 600, 6
	radii := geo.Radii{R1: 100, R2: 200}
	type tally struct {
		ballots [cm.FeedbackCollision + 1]int
		outputs [cha.Green + 1]int
	}
	run := func(workers int) (tallies []tally, digests []uint64, goroutines int) {
		dep, err := vi.NewDeployment(vi.DeploymentConfig{
			Locations: []geo.Point{{}},
			Radii:     radii,
			Program:   counterProgram,
			Leaders:   []sim.NodeID{0},
		})
		if err != nil {
			t.Fatal(err)
		}
		if m := dep.LeaderMargin(); m != 25 {
			t.Fatalf("leader margin %g, want 25", m)
		}
		medium := radio.MustMedium(radio.Config{Radii: radii, Detector: cd.AC{}, Seed: 11})
		opts := []sim.Option{sim.WithSeed(11)}
		if workers > 0 {
			opts = append(opts, sim.WithWorkers(workers))
		}
		eng := sim.NewEngine(medium, opts...)
		defer eng.Close()

		var (
			mu  sync.Mutex
			cur tally
			ids = map[string]bool{}
		)
		// goroutine notes the calling goroutine's id, the number in the
		// first line of its stack trace; mu is held.
		goroutine := func() {
			var buf [64]byte
			line := buf[:runtime.Stack(buf[:], false)]
			ids[string(bytes.Fields(line)[1])] = true
		}
		hooks := &vi.EmulatorHooks{
			OnBallot: func(_ vi.VNodeID, fb cm.Feedback) {
				mu.Lock()
				defer mu.Unlock()
				cur.ballots[fb]++
				goroutine()
			},
			OnOutput: func(_ vi.VNodeID, out cha.Output) {
				mu.Lock()
				defer mu.Unlock()
				cur.outputs[out.Color]++
				goroutine()
			},
		}
		for i := 0; i < replicas; i++ {
			pos := geo.Point{X: float64(i%25) - 12, Y: float64(i/25) - 11.5}
			eng.Attach(pos, nil, func(env sim.Env) sim.Node {
				em := dep.NewEmulator(env, true)
				em.SetHooks(hooks)
				return em
			})
		}
		for vr := 0; vr < vrounds; vr++ {
			eng.Run(dep.Timing().RoundsPerVRound())
			tallies = append(tallies, cur)
			digests = append(digests, uint64(wire.DigestOf(eng.Snapshot().AppendTo(nil))))
		}
		return tallies, digests, len(ids)
	}
	wantT, wantD, _ := run(0)
	gotT, gotD, goroutines := run(2)
	for vr := range wantT {
		if wantT[vr].ballots[cm.FeedbackWon] != vr+1 || wantT[vr].outputs[cha.Green] != replicas*(vr+1) {
			t.Fatalf("vround %d: sequential taps read %+v; want one winning ballot and %d green outputs a virtual round", vr+1, wantT[vr], replicas)
		}
		if gotT[vr] != wantT[vr] {
			t.Fatalf("vround %d: parallel taps %+v, sequential %+v", vr+1, gotT[vr], wantT[vr])
		}
		if gotD[vr] != wantD[vr] {
			t.Fatalf("vround %d: parallel digest %x, sequential %x", vr+1, gotD[vr], wantD[vr])
		}
	}
	if goroutines < 2 {
		t.Fatalf("the parallel run's hooks fired on %d goroutine(s); want a helper's too", goroutines)
	}
}
