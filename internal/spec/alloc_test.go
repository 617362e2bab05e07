package spec

import "testing"

// TestWorldVRoundSteadyStateAllocs is the allocation gate on the world
// people run: vi's TestEmulatorVRoundSteadyStateAllocs drives a hand-built
// bed with a test-local program, so it never saw what Build's own program
// or hooks allocate. Here the fault-free 3x3 document (27 replicas, 9
// pingers) goes through Build and one StepVRound is counted after warm-up.
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
	avg := testing.AllocsPerRun(20, w.StepVRound)
	t.Logf("allocs/vround: %.1f", avg)
	if avg > 150 {
		t.Errorf("steady-state virtual round of the 3x3 world allocates %.0f times, want <= 150", avg)
	}
	if a := w.Summary().MeanAvailability; a != 1 {
		t.Fatalf("fault-free availability %.3f, want 1.0", a)
	}
}
