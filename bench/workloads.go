package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"vinfra/internal/checkpoint"
	"vinfra/internal/experiments"
	"vinfra/internal/harness"
	"vinfra/internal/spec"
)

// config is one run's arguments.
type config struct {
	seed    int64
	seconds float64
	traced  bool
	// mini shrinks populations and warm-ups so bench_test.go can run every
	// workload in a few seconds. Mini runs are never pinned or compared.
	mini bool
	out  string // directory for span files and the service's state dir
}

// repBudget is how long the set-up keeps being repeated: a second, less on
// very short runs.
func (c config) repBudget() time.Duration {
	return time.Duration(min(1, c.seconds) * float64(time.Second))
}

// workload is one named set of inputs. The warm-up is a fixed count, so the
// state at its end — the pin point, where simulated statistics, checkpoint
// size and live heap are taken — repeats exactly per seed; the steady phase
// after it is a time box and only ever produces host-time numbers.
type workload struct {
	name string
	why  string
	// warm is the pinned warm-up: virtual rounds (client cycles on the
	// service workload).
	warm, miniWarm int
	// block is how many steady-phase operations (virtual rounds; step
	// requests on the service workload) make one block of bestBlock: 10 to
	// 30 ms of work, the length of a quiet stretch on a shared host — or one
	// operation where a single one is already longer than that.
	block int
	run   func(*workload, config) *run
	// build constructs the system under test (engine workloads).
	build func(seed int64, mini bool) (*sut, error)
	// twin, when set, builds the same world on the reference engine path;
	// on a seed without pinned statistics the run steps it to the pin
	// point and requires identical statistics (halo count aside).
	twin func(seed int64, mini bool) (*sut, error)
	// check returns an error when statistics break an invariant that holds
	// for every seed of this workload.
	check func(st simStats) error
}

func (w *workload) warmup(mini bool) int {
	if mini {
		return w.miniWarm
	}
	return w.warm
}

var workloads = []*workload{
	{
		name: "city-100k",
		why:  "100k roaming listeners on the sequential single-medium engine: host time is sim fan-out, mobility, radio.Deliver and GC; vi/cha idle",
		warm: 2, miniWarm: 1, block: 1, run: runEngine,
		build: func(seed int64, mini bool) (*sut, error) {
			return specSUT(citySpec(seed, cityListeners(mini), spec.Engine{}))
		},
		check: faultFree,
	},
	{
		name: "city-100k-sharded",
		why:  "the same document on the region-sharded engine (2 workers, 4 shards): partition, halo and per-shard deliver, so a gain on one round path that costs the other shows",
		warm: 2, miniWarm: 1, block: 1, run: runEngine,
		build: func(seed int64, mini bool) (*sut, error) {
			return specSUT(citySpec(seed, cityListeners(mini), spec.Engine{Workers: 2, Shards: 4}))
		},
		twin: func(seed int64, mini bool) (*sut, error) {
			return specSUT(citySpec(seed, cityListeners(mini), spec.Engine{}))
		},
		check: faultFree,
	},
	{
		name: "metro-vi",
		why:  "the city grid without listeners (900 static devices): every node-round is vi.Emulator, cha.Core, cm and Monitor.Observe; mobility, geo and shard idle",
		warm: 200, miniWarm: 5, block: 3, run: runEngine,
		build: func(seed int64, mini bool) (*sut, error) {
			return specSUT(citySpec(seed, 0, spec.Engine{}))
		},
		check: faultFree,
	},
	{
		name: "churn-storm",
		why:  "E13 storm/high on 7x7 on the parallel engine: kill-and-respawn, mid-run Attach, join and state transfer, resets, leader failover, dead state piling up",
		warm: stormWarm, miniWarm: stormMiniWarm, block: 3, run: runEngine,
		build: stormSUT,
		check: func(st simStats) error {
			// The storm respawns what it kills: the live population is
			// constant while the attached one grows.
			if want := stormCols * stormRows * 4; st.Alive != want {
				return fmt.Errorf("alive %d, want %d", st.Alive, want)
			}
			if st.VRound > 2 && st.Attached <= st.Alive {
				return fmt.Errorf("attached %d never grew past alive %d", st.Attached, st.Alive)
			}
			if st.Availability < 0.5 {
				return fmt.Errorf("availability %.4f collapsed", st.Availability)
			}
			return nil
		},
	},
	{
		name: "service-mixed",
		why:  "visimd in process behind a loopback HTTP server: 8 small tenants stepped by 2 keep-alive clients with scrapes, availability reads and checkpoints mixed in",
		warm: 100, miniWarm: 4, block: 40, run: runService,
		check: faultFree,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// faultFree is the invariant of every world without an adversary.
func faultFree(st simStats) error {
	switch {
	case st.Availability != 1:
		return fmt.Errorf("availability %.6f on a fault-free world, want 1", st.Availability)
	case st.Alive != st.Attached:
		return fmt.Errorf("%d of %d devices alive on a fault-free world", st.Alive, st.Attached)
	case st.Resets != 0:
		return fmt.Errorf("%d resets on a fault-free world", st.Resets)
	}
	return nil
}

func cityListeners(mini bool) int {
	if mini {
		return 2000
	}
	return 100000
}

// citySpec is the 15x15 city document (spacing 6, radii 10/20, three
// replicas and a pinger per region) with the given listener population.
// The horizon is out of reach: the run length is the benchmark's to set.
func citySpec(seed int64, listeners int, eng spec.Engine) spec.Spec {
	return spec.Spec{
		Version: spec.Version, Seed: seed, VRounds: 1 << 30,
		Grid:    spec.Grid{Cols: 15, Rows: 15},
		Devices: spec.Devices{Replicas: 3, Pingers: true, Listeners: listeners},
		Engine:  eng,
	}
}

// sut is the system under test as an engine workload drives it.
type sut struct {
	step       func()
	checkpoint func() checkpoint.Checkpoint
	churn      func() (joins, resets int)
	close      func()
	// rebuild constructs a fresh, unstepped copy (restore target).
	rebuild func() (*sut, error)
	restore func(checkpoint.Checkpoint) error
	// world is nil for the soak driver, which hides its engine; doc is the
	// world's spec document (spec worlds only).
	world *spec.World
	doc   []byte
	nv    int
}

func specSUT(s spec.Spec) (*sut, error) {
	w, err := spec.Build(s)
	if err != nil {
		return nil, err
	}
	return &sut{
		step:       w.StepVRound,
		checkpoint: w.Checkpoint,
		churn:      func() (int, int) { return w.Joins(), w.Resets() },
		close:      w.Eng.Close,
		rebuild:    func() (*sut, error) { return specSUT(s) },
		restore:    w.Restore,
		world:      w,
		doc:        s.JSON(),
		nv:         len(w.Locs),
	}, nil
}

const stormCols, stormRows = 7, 7

// The soak reports its churn counters through Rows, which also accounts
// availability through the cell's horizon — an allocation the size of the
// horizon per virtual node. So the horizon is the warm-up, not "never":
// stepping past it is fine (the storm schedule does not read it) and Rows
// stays cheap.
const stormWarm, stormMiniWarm = 300, 10

func stormSUT(seed int64, mini bool) (*sut, error) {
	horizon := stormWarm
	if mini {
		horizon = stormMiniWarm
	}
	cell := &harness.Cell{Seed: seed, Params: harness.Params{
		Label: "storm/high/7x7",
		Ints:  map[string]int{"cols": stormCols, "rows": stormRows, "vrounds": horizon},
		Strs:  map[string]string{"kind": "storm", "intensity": "high"},
	}}
	so, err := experiments.NewSoak("E13", cell, 0)
	if err != nil {
		return nil, err
	}
	cols := so.Columns()
	return &sut{
		step:       so.StepVRound,
		checkpoint: so.Checkpoint,
		churn: func() (joins, resets int) {
			// The soak exposes its churn counters only as result columns.
			row := so.Rows()[0]
			for i, c := range cols {
				switch v, _ := row[i].V.(int64); c {
				case "joins":
					joins = int(v)
				case "resets":
					resets = int(v)
				}
			}
			return joins, resets
		},
		close:   func() {},
		rebuild: func() (*sut, error) { return stormSUT(seed, mini) },
		restore: so.Restore,
		nv:      stormCols * stormRows,
	}, nil
}

// liveHeapMB forces a collection and returns the heap still in use.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// rtSample is a reading of the Go runtime's allocation and GC counters.
type rtSample struct {
	alloc, mallocs  uint64
	gcs             uint32
	pauseNs         uint64
	gcCPU, totalCPU float64
}

func readRuntime() rtSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := rtSample{alloc: m.TotalAlloc, mallocs: m.Mallocs, gcs: m.NumGC, pauseNs: m.PauseTotalNs}
	cpu := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(cpu)
	if cpu[0].Value.Kind() == metrics.KindFloat64 && cpu[1].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU, s.totalCPU = cpu[0].Value.Float64(), cpu[1].Value.Float64()
	}
	return s
}

// setRuntime reports what the Go runtime did between two readings, spread
// over the radio rounds executed in between.
func (r *run) setRuntime(a, b rtSample, rounds int) {
	if rounds > 0 {
		r.set("runtime.alloc_kb_per_round", float64(b.alloc-a.alloc)/1024/float64(rounds))
		r.set("runtime.mallocs_per_round", float64(b.mallocs-a.mallocs)/float64(rounds))
	}
	r.set("runtime.gc_count", float64(b.gcs-a.gcs))
	r.set("runtime.gc_pause_ms_total", float64(b.pauseNs-a.pauseNs)/1e6)
	if d := b.totalCPU - a.totalCPU; d > 0 {
		r.set("runtime.gc_cpu_pct", 100*(b.gcCPU-a.gcCPU)/d)
	}
}

func newRun(wl *workload, cfg config) *run {
	r := &run{
		Stamp: machineStamp(), Workload: wl.name, Seed: cfg.seed,
		Seconds: cfg.seconds, Traced: cfg.traced,
		Result: result{Correct: true},
	}
	if cfg.traced {
		r.tracer = newTracer()
	}
	return r
}

// pin records the statistics at the pin point and judges them: against
// bench/expect.json when the seed is pinned, against the workload's
// invariants always.
func (r *run) pin(wl *workload, cfg config, st simStats) {
	r.Sim = st
	r.Pinned = "unpinned"
	if !cfg.mini {
		exp, err := loadExpectations()
		if err != nil {
			r.fail("%v", err)
			return
		}
		r.Pinned = exp.checkPinned(wl.name, cfg.seed, st)
	}
	if r.Pinned != "match" && r.Pinned != "unpinned" {
		r.fail("%s", r.Pinned)
	}
	if err := wl.check(st); err != nil {
		r.fail("pin point: %v", err)
	}
}

// runEngine drives one engine workload: set up (several times, median),
// warm up a fixed count of virtual rounds, take the pin point, step for
// cfg.seconds, then — traced runs only — replay the layers.
func runEngine(wl *workload, cfg config) *run {
	r := newRun(wl, cfg)
	tr := r.tracer
	root := tr.begin(-1, "run")
	wsp := tr.begin(root, wl.name)
	defer func() { tr.end(wsp); tr.end(root) }()

	// Setup: build until the first step is possible. Construction is cheap
	// next to a run, so it is repeated and the median reported.
	var s *sut
	var hook *roundHook
	ph := tr.begin(wsp, "setup")
	var buildErr error
	setup := timeReps(5, 200, cfg.repBudget(), func() {
		if s != nil {
			s.close()
		}
		b := tr.begin(ph, "build")
		s, buildErr = wl.build(cfg.seed, cfg.mini)
		if buildErr == nil && tr != nil && s.world != nil {
			hook = newRoundHook(tr, s.world)
		}
		tr.end(b)
		if buildErr != nil {
			panic(buildErr) // a workload that cannot build is a bug in this file
		}
	})
	tr.end(ph)
	defer func() { s.close() }()
	r.setN("setup_s", median(setup)/1e3, len(setup))
	r.set("spec.build_ms", median(setup))

	// Warm-up: a fixed count, so the pin point is the same state per seed.
	warm := wl.warmup(cfg.mini)
	ph = tr.begin(wsp, "warmup")
	if hook != nil {
		hook.count = true
	}
	for i := 0; i < warm; i++ {
		s.step()
	}
	if hook != nil {
		hook.count = false
	}
	tr.end(ph)
	r.Result.Attempted = warm

	// Pin point.
	ph = tr.begin(wsp, "checkpoint")
	pinCP := s.checkpoint()
	joins, resets := s.churn()
	pin := statsOf(pinCP, s.nv, warm, joins, resets)
	r.pin(wl, cfg, pin)
	per := pin.Rounds / warm
	r.set("checkpoint_kb", float64(len(pinCP.Encode()))/1024)
	r.set("heap_live_mb", liveHeapMB())
	tr.end(ph)

	// Steady state: step for cfg.seconds.
	ph = tr.begin(wsp, "steady")
	rt0 := readRuntime()
	part0 := partitionTime(s)
	ops, on, off := steady(s, hook, tr, ph, cfg.seconds)
	rt1 := readRuntime()
	tr.end(ph)
	steadyRounds := len(ops) * per
	r.Result.Attempted += len(ops)
	r.setSteady(ops, wl.block, per)

	end := s.checkpoint()
	joins, resets = s.churn()
	endStats := statsOf(end, s.nv, warm+len(ops), joins, resets)
	if err := wl.check(endStats); err != nil {
		r.fail("end of run: %v", err)
	}
	r.Notes = append(r.Notes, fmt.Sprintf("end of run: vround %d digest %s availability %.4f attached %d alive %d",
		endStats.VRound, endStats.Digest, endStats.Availability, endStats.Attached, endStats.Alive))

	if wl.twin != nil && r.Pinned == "unpinned" {
		r.checkTwin(wl, cfg, pin)
	}

	if tr != nil {
		all := latencies(ops)
		r.setN("sim.vround_ms_p95", percentile(all, 0.95), len(all))
		if len(on) > 0 && len(off) > 0 {
			r.set("trace.overhead_pct", 100*(median(on)/median(off)-1))
		}
		r.setRuntime(rt0, rt1, steadyRounds)
		r.set("sim.partition_ms_per_round", ms(partitionTime(s)-part0)/float64(steadyRounds))
		ph = tr.begin(wsp, "replay")
		layerMetrics(r, ph, s, hook, layerInputs{
			pin: pin, pinCP: pinCP, end: endStats, endCP: end,
			per: per, vroundMs: median(all), seed: cfg.seed,
		})
		tr.end(ph)
	}
	return r
}

// setSteady reports the steady phase: throughput and latency of its best
// block (see bestBlock), and the whole window beside them for the reader.
// per is the radio rounds one operation simulates.
func (r *run) setSteady(ops []op, block, per int) {
	perSec, p50, blocks := bestBlock(ops, block)
	r.setN("rounds_per_s", perSec*float64(per), blocks)
	r.setN("vround_ms_p50", p50, blocks)
	window := ops[len(ops)-1].end - (ops[0].end - ops[0].lat)
	r.Notes = append(r.Notes, fmt.Sprintf("steady: %d operations in %.2f s, blocks of %d; whole window %.1f rounds/s, median %.4f ms (host noise included)",
		len(ops), window/1e3, block, float64(len(ops)*per)/window*1e3, median(latencies(ops))))
}

func latencies(ops []op) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = o.lat
	}
	return out
}

// steady steps s for the given number of seconds (at least once) and
// returns every virtual round as an operation. A traced run records every
// other virtual round — their durations returned apart in on and off — so
// the two halves of one run give the tracing overhead.
func steady(s *sut, hook *roundHook, tr *tracer, ph int32, seconds float64) (ops []op, on, off []float64) {
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; ; i++ {
		traced := tr != nil && i%2 == 0
		t0 := time.Now()
		vs := int32(-1)
		if traced {
			vs = tr.begin(ph, "vround")
		}
		hook.arm(traced, vs)
		s.step()
		tr.end(vs)
		t1 := time.Now()
		d := ms(t1.Sub(t0))
		ops = append(ops, op{end: ms(t1.Sub(start)), lat: d})
		if traced {
			on = append(on, d)
		} else if tr != nil {
			off = append(off, d)
		}
		if !t1.Before(deadline) {
			break
		}
	}
	hook.arm(false, -1)
	return ops, on, off
}

// checkTwin steps the workload's reference-path twin to the pin point and
// requires the same simulated statistics (the halo count aside).
func (r *run) checkTwin(wl *workload, cfg config, pin simStats) {
	t, err := wl.twin(cfg.seed, cfg.mini)
	if err != nil {
		r.fail("twin: %v", err)
		return
	}
	defer t.close()
	for i := 0; i < pin.VRound; i++ {
		t.step()
	}
	joins, resets := t.churn()
	got := statsOf(t.checkpoint(), t.nv, pin.VRound, joins, resets)
	if got.withoutHalo() != pin.withoutHalo() {
		r.fail("twin on the reference engine path differs at vround %d: %+v vs %+v", pin.VRound, got, pin)
		return
	}
	r.Notes = append(r.Notes, "twin on the reference engine path matches at the pin point")
}

// partitionTime is the engine's cumulative partition-pass wall time (zero
// off the region-sharded path and for the soak driver).
func partitionTime(s *sut) time.Duration {
	if s.world == nil {
		return 0
	}
	return s.world.Eng.PartitionTime()
}
