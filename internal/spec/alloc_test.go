package spec

import (
	"runtime/debug"
	"testing"
)

// TestWorldVRoundSteadyStateAllocs is the allocation gate on the world
// people run: vi's TestEmulatorVRoundSteadyStateAllocs drives a hand-built
// bed with a test-local program, so it never saw what Build's own program
// or hooks allocate. Here the fault-free 3x3 document (27 replicas, 9
// pingers) goes through Build and StepVRound is counted after warm-up,
// over t = lcm(4, s) = 36 and 8t virtual rounds with the collector off (as
// in vi's gate): the two counts must be equal, or the work per virtual round
// grows with the run.
// The measured value is 122 and the pin 150; the figure before the
// agreement layer became a window was 450 (CHANGES.md, PR 22), and before
// the medium's Msgs arena and fmt-free payloads 206.
func TestWorldVRoundSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s, err := Parse([]byte(`{
		"version": "vinfra-spec/v1", "seed": 1,
		"grid": {"cols": 3, "rows": 3},
		"devices": {"replicas": 3, "pingers": true}}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	w, err := Build(s)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer w.Eng.Close()
	run(t, w, 20) // warm up: schedules, caches, reusable buffers
	// A pinger pings every fourth virtual round and a virtual node speaks in
	// its slot of s, so both counts are over whole periods.
	sched := w.Dep.Schedule().Len()
	rounds := sched
	for rounds%4 != 0 {
		rounds += sched
	}
	// No collection while counting: a GC empties the state plane's
	// sync.Pools, and refilling them follows the collector, not the round.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	short := testing.AllocsPerRun(rounds, w.StepVRound)
	long := testing.AllocsPerRun(8*rounds, w.StepVRound)
	t.Logf("allocs/vround: %.2f over %d virtual rounds, %.2f over %d", short, rounds, long, 8*rounds)
	if short != long {
		t.Errorf("a virtual round allocates %.2f times over %d rounds and %.2f over %d: the work per round grows with the run",
			short, rounds, long, 8*rounds)
	}
	if long > 150 {
		t.Errorf("steady-state virtual round of the 3x3 world allocates %.0f times, want <= 150", long)
	}
	if a := w.Summary().MeanAvailability; a != 1 {
		t.Fatalf("fault-free availability %.3f, want 1.0", a)
	}
}
