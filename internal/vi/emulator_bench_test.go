package vi_test

import (
	"fmt"
	"testing"

	"vinfra/internal/cd"
	"vinfra/internal/geo"
	"vinfra/internal/radio"
	"vinfra/internal/sim"
	"vinfra/internal/vi"
)

// benchBed wires a cols x rows virtual-node grid with three bootstrapped
// replicas per region, one pinging client per region, fixed leaders, and
// the parallel grid stack off (the benchmark isolates the state plane, not
// the delivery fan-out).
func benchBed(cols, rows int) (*sim.Engine, *vi.Deployment) {
	locs := geo.Grid{Spacing: 6, Cols: cols, Rows: rows}.Locations()
	sched := vi.BuildSchedule(locs, testRadii)
	leaders := make(map[vi.VNodeID]sim.NodeID, len(locs))
	for v := range locs {
		leaders[vi.VNodeID(v)] = sim.NodeID(v * 3)
	}
	dep, err := vi.NewDeployment(vi.DeploymentConfig{
		Locations: locs,
		Radii:     testRadii,
		Program:   counterProgram(sched),
		NewCM:     fixedLeaderCM(leaders),
	})
	if err != nil {
		panic(err)
	}
	medium := radio.MustMedium(radio.Config{Radii: testRadii, Detector: cd.AC{}, Seed: 1})
	eng := sim.NewEngine(medium, sim.WithSeed(1))
	for v, loc := range locs {
		for i := 0; i < 3; i++ {
			pos := geo.Point{X: loc.X + 0.3*float64(i) - 0.5, Y: loc.Y + 0.2}
			eng.Attach(pos, nil, func(env sim.Env) sim.Node {
				return dep.NewEmulator(env, true)
			})
		}
		v := v
		eng.Attach(geo.Point{X: loc.X + 1.2, Y: loc.Y - 1}, nil, func(env sim.Env) sim.Node {
			return dep.NewClient(env, vi.ClientFunc(
				func(vr int, _ []vi.Message, _ bool) *vi.Message {
					if vr%4 != v%4 {
						return nil
					}
					return vi.Text(fmt.Sprintf("ping-%02d-%04d", v, vr))
				}))
		})
	}
	return eng, dep
}

// TestEmulatorVRoundSteadyStateAllocs gates the virtual round's allocation
// budget: a 9-virtual-node grid (27 replicas + 9 clients) must run one
// full virtual round (21 radio rounds) in at most 100 allocations after
// warm-up — the measured 83 plus about 15 %. On the gob+string state plane
// this was ~10,400 allocs per virtual round (every replica gob-encoding and
// decoding its state and fmt-splicing proposals), on the wire codec 342;
// the window core, the history view and the pooled state decoder brought it
// to 166, and the medium's Msgs arena and a Normalize that does not box to
// 83. The bed's program is test-local: the world spec.Build makes has its
// own gate, spec's TestWorldVRoundSteadyStateAllocs.
func TestEmulatorVRoundSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	eng, dep := benchBed(3, 3)
	per := dep.Timing().RoundsPerVRound()
	eng.Run(3 * per) // warm up: schedules, caches, reusable buffers
	avg := testing.AllocsPerRun(5, func() { eng.Run(per) })
	t.Logf("allocs/vround: %.1f", avg)
	if avg > 100 {
		t.Errorf("steady-state virtual round allocates %.0f times at 9 vnodes, want <= 100", avg)
	}
}

// TestNormalizeSteadyStateAllocs gates RoundInput.Normalize, which Encode
// runs on every proposal: sorting and deduplicating eight messages, three
// of them repeats, allocates nothing (sort.Slice boxed its arguments).
func TestNormalizeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	src := [][]byte{
		[]byte("ping-04-0012"), []byte("count=7"), []byte("ping-00-0012"), []byte("count=7"),
		[]byte("zz"), []byte("ping-04-0012"), []byte(""), []byte("zz"),
	}
	in := vi.RoundInput{Msgs: make([][]byte, 0, len(src))}
	avg := testing.AllocsPerRun(100, func() {
		in.Msgs = append(in.Msgs[:0], src...)
		in.Normalize()
	})
	t.Logf("allocs/Normalize: %.1f", avg)
	if avg > 0 {
		t.Errorf("Normalize of %d messages allocates %.1f times, want 0", len(src), avg)
	}
	want := []string{"", "count=7", "ping-00-0012", "ping-04-0012", "zz"}
	if got := fmt.Sprintf("%q", in.Msgs); got != fmt.Sprintf("%q", want) {
		t.Errorf("Normalize = %s, want %q", got, want)
	}
}

// BenchmarkEmulatorVRound measures one full virtual round (s+12 radio
// rounds) of the complete emulation stack — message sub-protocol, CHAP
// instance, state materialization and checkpoint folding — at 9 and 25
// virtual nodes. It is the state-plane hot path: per-op allocations are
// dominated by proposal encoding and virtual-node state encode/decode.
func BenchmarkEmulatorVRound(b *testing.B) {
	for _, shape := range []struct{ cols, rows int }{{3, 3}, {5, 5}} {
		b.Run(fmt.Sprintf("vnodes=%d", shape.cols*shape.rows), func(b *testing.B) {
			eng, dep := benchBed(shape.cols, shape.rows)
			per := dep.Timing().RoundsPerVRound()
			eng.Run(3 * per) // warm up: schedules, caches, buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Run(per)
			}
		})
	}
}
