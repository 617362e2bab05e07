package vi_test

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"vinfra/internal/cha"
	"vinfra/internal/geo"
	"vinfra/internal/vi"
)

// benchBed wires a cols x rows virtual-node grid with three bootstrapped
// replicas per region, each region led by its first replica, and one
// pinging client per region, over tallyProgram, whose state stays one
// varint however long the bed runs. The leader ids come from the attach
// order — newTestbed attaches every region's replicas before any client —
// so each region's leader is one of its own replicas and the channel goes
// green; the program keeps a virtual round's work the same at every round.
func benchBed(tb testing.TB, cols, rows int) *testbed {
	locs := geo.Grid{Spacing: 6, Cols: cols, Rows: rows}.Locations()
	bed := newTestbed(tb, testbedOpts{locs: locs, replicasPer: 3, leaders: true, program: tallyProgram})
	for v, loc := range locs {
		bed.addClient(geo.Point{X: loc.X + 1.2, Y: loc.Y - 1}, vi.ClientFunc(
			func(vr int, _ []vi.Message, _ bool) *vi.Message {
				if vr%4 != v%4 {
					return nil
				}
				return vi.Text(fmt.Sprintf("ping-%02d-%04d", v, vr))
			}))
	}
	return bed
}

// TestEmulatorVRoundSteadyStateAllocs gates the virtual round's allocation
// budget: a 9-virtual-node grid (27 replicas + 9 clients) must run one full
// virtual round (21 radio rounds) in at most 90 allocations after warm-up —
// the measured 78 plus 15 % — and the same number per virtual round
// over 8t rounds as over t, with at least 95 % of its agreement instances
// green. On the gob+string state plane this was ~10,400 allocs per virtual
// round (every replica gob-encoding and decoding its state and
// fmt-splicing proposals), on the wire codec 342; the window core, the
// history view and the pooled state decoder brought it to 166, and the
// medium's Msgs arena and a Normalize that does not box to 83 — measured on
// a bed whose leader ids did not match its attach order, so that eight of
// its nine virtual nodes never went green. On the led bed it read 127 until
// outputs carried the core's history view, round inputs were decoded into a
// reused value and ballots travelled by pointer. The world spec.Build makes has
// its own gate, spec's TestWorldVRoundSteadyStateAllocs.
func TestEmulatorVRoundSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	bed := benchBed(t, 3, 3)
	var outputs, greens int
	for _, em := range bed.emulators {
		em.SetHooks(&vi.EmulatorHooks{OnOutput: func(_ vi.VNodeID, out cha.Output) {
			outputs++
			if out.Color == cha.Green {
				greens++
			}
		}})
	}
	per := bed.dep.Timing().RoundsPerVRound()
	bed.eng.Run(3 * per) // warm up: schedules, caches, reusable buffers
	outputs, greens = 0, 0
	// The bed repeats every lcm(4, s) virtual rounds — a client pings every
	// fourth, a virtual node speaks in its slot of s — and a virtual round's
	// count swings by a fifth within that, so both windows are whole periods.
	s := bed.dep.Schedule().Len()
	rounds := s
	for rounds%4 != 0 {
		rounds += s
	}
	// No collection while counting: a GC empties the sync.Pools the state
	// plane draws from, and refilling them is allocations that follow the
	// collector, not the virtual round.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	short := testing.AllocsPerRun(rounds, func() { bed.eng.Run(per) })
	long := testing.AllocsPerRun(8*rounds, func() { bed.eng.Run(per) })
	t.Logf("allocs/vround: %.1f over %d virtual rounds, %.1f over %d; %d of %d outputs green", short, rounds, long, 8*rounds, greens, outputs)
	if outputs == 0 || float64(greens) < 0.95*float64(outputs) {
		t.Fatalf("%d of %d agreement outputs green, want at least 95 %%: the bed is not led", greens, outputs)
	}
	if short != long {
		t.Errorf("a virtual round allocates %.0f times over %d rounds and %.0f over %d: the work per round grows with the run", short, rounds, long, 8*rounds)
	}
	if long > 90 {
		t.Errorf("steady-state virtual round allocates %.0f times at 9 vnodes, want <= 90", long)
	}
}

// TestEncodeSteadyStateAllocs gates RoundInput.Encode, which every replica
// runs on every proposal: encoding up to eight messages, three of them
// repeats, allocates exactly one object, the value: the sort runs on header
// copies in an array on Encode's stack, and leaves the caller's slice as it
// was.
func TestEncodeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	src := [][]byte{
		[]byte("ping-04-0012"), []byte("count=7"), []byte("ping-00-0012"), []byte("count=7"),
		[]byte("zz"), []byte("ping-04-0012"), []byte(""), []byte("zz"),
	}
	for n := 0; n <= len(src); n++ {
		in := vi.RoundInput{Msgs: src[:n], Collision: n%2 == 1}
		var v cha.Value
		avg := testing.AllocsPerRun(100, func() { v = in.Encode() })
		if avg != 1 {
			t.Errorf("Encode of %d messages allocates %.1f times, want 1", n, avg)
		}
		if n == len(src) {
			t.Logf("allocs/Encode of %d messages: %.1f", n, avg)
			got, err := vi.DecodeRoundInput(v)
			if err != nil {
				t.Fatal(err)
			}
			want := []string{"", "count=7", "ping-00-0012", "ping-04-0012", "zz"}
			if fmt.Sprintf("%q", got.Msgs) != fmt.Sprintf("%q", want) {
				t.Errorf("Encode wrote %q, want %q", got.Msgs, want)
			}
		}
	}
	if string(src[0]) != "ping-04-0012" || string(src[6]) != "" {
		t.Errorf("Encode reordered the caller's messages: %q", src)
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
			bed := benchBed(b, shape.cols, shape.rows)
			per := bed.dep.Timing().RoundsPerVRound()
			bed.eng.Run(3 * per) // warm up: schedules, caches, buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bed.eng.Run(per)
			}
		})
	}
}

// TestBuildScheduleAllocs is the counted gate on coloring: the schedule of
// the 300x300 grid at spacing 6 and radii 10/20 — 90 000 virtual nodes,
// each in conflict with about 200 — allocates at most 8 MB in all. It
// reads the slots of the colored neighbors straight off the location
// index; the sorted neighbor lists it built before took 371 MB.
func TestBuildScheduleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	locs := geo.Grid{Spacing: 6, Cols: 300, Rows: 300}.Locations()
	radii := geo.Radii{R1: 10, R2: 20}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := vi.BuildSchedule(locs, radii)
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("BuildSchedule of %d virtual nodes: %d slots, %.1f MB in %d allocations",
		len(locs), s.Len(), mb, after.Mallocs-before.Mallocs)
	if mb > 8 {
		t.Errorf("BuildSchedule of the 300x300 grid allocates %.1f MB, want <= 8", mb)
	}
}

// BenchmarkBuildSchedule colors the 15x15 grid of the city documents and
// the 300x300 one of the allocation gate.
func BenchmarkBuildSchedule(b *testing.B) {
	for _, n := range []int{15, 300} {
		locs := geo.Grid{Spacing: 6, Cols: n, Rows: n}.Locations()
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				vi.BuildSchedule(locs, geo.Radii{R1: 10, R2: 20})
			}
		})
	}
}
