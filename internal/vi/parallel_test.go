package vi_test

import (
	"fmt"
	"testing"

	"vinfra/internal/cd"
	"vinfra/internal/cm"
	"vinfra/internal/geo"
	"vinfra/internal/radio"
	"vinfra/internal/sim"
	"vinfra/internal/vi"
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
		sched := vi.BuildSchedule(locs, testRadii)
		dep, err := vi.NewDeployment(vi.DeploymentConfig{
			Locations: locs,
			Radii:     testRadii,
			Program:   counterProgram(sched),
			NewCM: func(v vi.VNodeID, env sim.Env) cm.Manager {
				return cm.NewBackoff(cm.BackoffConfig{})(env)
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
			opts = append(opts, sim.WithParallel())
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
