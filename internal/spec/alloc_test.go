package spec

import (
	"runtime"
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
// The measured value is 72 and the pin 85; the figure before the agreement
// layer became a window was 450 (CHANGES.md, PR 22), before the medium's
// Msgs arena and fmt-free payloads 206, and before outputs carried the
// core's history view and round inputs were decoded into a reused value 122.
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
	if long > 85 {
		t.Errorf("steady-state virtual round of the 3x3 world allocates %.0f times, want <= 85", long)
	}
	if a := w.Summary().MeanAvailability; a != 1 {
		t.Fatalf("fault-free availability %.3f, want 1.0", a)
	}
}

// buildAllocs builds s and returns what the build allocated — megabytes
// and heap objects in all — and the bytes the world keeps live once a
// collection has run.
func buildAllocs(tb testing.TB, s Spec) (mb float64, mallocs, live uint64) {
	tb.Helper()
	var before, after, kept runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	w, err := Build(s)
	runtime.ReadMemStats(&after)
	if err != nil {
		tb.Fatalf("Build: %v", err)
	}
	runtime.GC()
	runtime.ReadMemStats(&kept)
	w.Eng.Close()
	runtime.KeepAlive(w)
	return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20), after.Mallocs - before.Mallocs,
		kept.HeapAlloc - min(before.HeapAlloc, kept.HeapAlloc)
}

// citySpec is the city document of the bench workloads: the 15x15 grid
// with three replicas and a pinger per region, and listeners roaming it.
func citySpec(listeners int) Spec {
	return Spec{
		Version: Version, Seed: 1, VRounds: 1 << 30,
		Grid:    Grid{Cols: 15, Rows: 15},
		Devices: Devices{Replicas: 3, Pingers: true, Listeners: listeners},
	}
}

// TestBuildCityAllocs is the counted gate on construction: building the
// 100k-listener city document — the city-100k workloads' world — allocates
// at most 28 MB in at most 2 000 heap objects (~23.4 MB and ~1 200
// measured). The engine reserves its per-node slices for the population up
// front (sim.Engine.Reserve), the deployment carves clients from chunks
// (vi.Deployment.NewClient) and the bootstrapped replicas from arrays sized
// for their number (vi.Deployment.Reserve), so what remains is per
// virtual node; growing the slices through every doubling took the figure
// to 44.6 MB, one heap object per listener to 110 547 allocations, a state
// cache of its own per replica, with a throwaway initial state, to 6 368, a
// monitor method value made per replica to 5 020, and an emulator, core and
// manager allocated per replica, with three objects per virtual node for its
// leader, to 4 352.
func TestBuildCityAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	mb, mallocs, _ := buildAllocs(t, citySpec(100_000))
	t.Logf("Build of the 100k city document: %.1f MB in %d allocations", mb, mallocs)
	if mb > 28 {
		t.Errorf("Build of the 100k city document allocates %.1f MB, want <= 28", mb)
	}
	if mallocs > 2000 {
		t.Errorf("Build of the 100k city document allocates %d times, want <= 2000", mallocs)
	}
}

// TestBuildMetroAllocs is the counted gate on the metro-vi workload's world,
// the city document without listeners (900 static devices): at most 1 MB in
// at most 2 000 heap objects (~0.55 MB and ~1 160 measured). The schedule is
// colored once, by vi.NewDeployment, straight off the location index, a
// replica's state cache lives in its emulator, and the bootstrapped
// replicas are carved from arrays (vi.Deployment.Reserve); coloring it twice
// through per-node neighbor lists took 1.92 MB and 10 546 allocations, a
// state cache of its own per replica, with a throwaway initial state, 6 326,
// a monitor method value made per replica 4 974, and allocating each
// replica's emulator, core, manager and initial state 4 300.
func TestBuildMetroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	mb, mallocs, _ := buildAllocs(t, citySpec(0))
	t.Logf("Build of the metro document: %.2f MB in %d allocations", mb, mallocs)
	if mb > 1 {
		t.Errorf("Build of the metro document allocates %.2f MB, want <= 1", mb)
	}
	if mallocs > 2000 {
		t.Errorf("Build of the metro document allocates %d times, want <= 2000", mallocs)
	}
}

// replicaSpec is the replica-only document: an n x n grid with three
// bootstrapped replicas a region and no other device.
func replicaSpec(n int) Spec {
	return Spec{
		Version: Version, Seed: 1, VRounds: 1 << 30,
		Grid:    Grid{Cols: n, Rows: n},
		Devices: Devices{Replicas: 3},
	}
}

// TestBuildReplicaAllocs is the counted gate on what a replica costs to
// build, on the 100x100 replica-only document (30 000 replicas): at most 2
// heap objects and at most 743 bytes live per replica. Build lays the
// replicas' emulators, agreement cores and contention managers out in
// arrays sized for their number (vi.Deployment.Reserve), the fixed
// regime's leaders are one table, and a virtual node's replicas share its
// initial state, so what is left is per virtual node — its program and
// initial state — and the engine's per-node slices: 1.03 objects and
// ~710 bytes live per replica measured, where allocating the three per
// replica, an initial state each and three leader objects per virtual node
// took 5.69 objects and 743 bytes.
func TestBuildReplicaAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const n = 100
	_, mallocs, live := buildAllocs(t, replicaSpec(n))
	replicas := float64(n * n * 3)
	perObj, perByte := float64(mallocs)/replicas, float64(live)/replicas
	t.Logf("Build of the %dx%d replica document: %.2f allocations and %.0f B live per replica", n, n, perObj, perByte)
	if perObj > 2 {
		t.Errorf("a replica costs %.2f allocations to build, want <= 2", perObj)
	}
	if perByte > 743 {
		t.Errorf("a built replica keeps %.0f B live, want <= 743", perByte)
	}
}

// BenchmarkMetroVRound is one virtual round of the metro-vi workload's
// world — the metro document through Build, warmed up for 200 virtual rounds
// as the benchmark's pin point is — reporting allocs/op and B/op: every
// node-round is a replica's, so it is the agreement path's per-round cost
// on its own.
func BenchmarkMetroVRound(b *testing.B) {
	w, err := Build(citySpec(0))
	if err != nil {
		b.Fatalf("Build: %v", err)
	}
	defer w.Eng.Close()
	for i := 0; i < 200; i++ {
		w.StepVRound()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.StepVRound()
	}
}

// BenchmarkBuildMetro times Build of the metro-vi workload's document, the
// benchmark's setup_s on its own.
func BenchmarkBuildMetro(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, err := Build(citySpec(0))
		if err != nil {
			b.Fatalf("Build: %v", err)
		}
		w.Eng.Close()
	}
}

// BenchmarkBuildLargest builds the largest replica-only world Validate
// admits with three replicas a region: 591x591 virtual nodes, 1 047 843
// replicas, just under MaxDevices. Beside the time of Build alone it
// reports the world's live megabytes and the heap objects per replica; run
// it at -benchtime 1x (about a gigabyte of heap).
func BenchmarkBuildLargest(b *testing.B) {
	const n = 591
	b.ReportAllocs()
	var before, after, kept runtime.MemStats
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		runtime.ReadMemStats(&before)
		b.StartTimer()
		w, err := Build(replicaSpec(n))
		b.StopTimer()
		if err != nil {
			b.Fatalf("Build: %v", err)
		}
		runtime.ReadMemStats(&after)
		runtime.GC()
		runtime.ReadMemStats(&kept)
		w.Eng.Close()
		runtime.KeepAlive(w)
		b.StartTimer()
	}
	b.ReportMetric(float64(kept.HeapAlloc-min(before.HeapAlloc, kept.HeapAlloc))/(1<<20), "live-MB")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(n*n*3), "mallocs/replica")
}
