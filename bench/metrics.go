package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// metricDef names one metric of the benchmark. BENCHMARK.json lists the
// same names, units and directions; bench_test.go keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd is what a user of the system sees; every workload reports every
// one of them on the untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"rounds_per_s", "1/s", "higher", 0.25},
	{"vround_ms_p50", "ms", "lower", 0.25},
	{"checkpoint_kb", "KB", "lower", 0.05},
	{"heap_live_mb", "MB", "lower", 0.10},
}

// perLayer is reported by the traced run only. A layer a workload does not
// exercise reports 0 (mobility on metro-vi, service.* on the engine
// workloads, hook-derived radio numbers on churn-storm, whose driver does
// not expose its engine).
var perLayer = []metricDef{
	{Name: "sim.step_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "sim.step_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "sim.vround_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "sim.partition_ms_per_round", Unit: "ms", Better: "lower"},
	{Name: "sim.residual_ms_per_round", Unit: "ms", Better: "lower"},
	{Name: "sim.tx_per_round", Unit: "count", Better: "lower"},
	{Name: "sim.halo_tx_per_round", Unit: "count", Better: "lower"},
	{Name: "sim.wire_bytes_per_round", Unit: "B", Better: "lower"},
	{Name: "sim.nodes_attached", Unit: "count", Better: "lower"},
	{Name: "sim.alive_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sim.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "radio.deliver_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "radio.deliver_share", Unit: "ratio", Better: "lower"},
	{Name: "radio.allocs_per_deliver", Unit: "count", Better: "lower"},
	{Name: "radio.rx_nonempty_ratio", Unit: "ratio", Better: "higher"},
	{Name: "radio.collision_ratio", Unit: "ratio", Better: "lower"},
	{Name: "geo.rebuild_us", Unit: "us", Better: "lower"},
	{Name: "geo.near_ns", Unit: "ns", Better: "lower"},
	{Name: "shard.cellof_ns", Unit: "ns", Better: "lower"},
	{Name: "shard.halospan_ns", Unit: "ns", Better: "lower"},
	{Name: "mobility.move_ns", Unit: "ns", Better: "lower"},
	{Name: "mobility.est_ms_per_round", Unit: "ms", Better: "lower"},
	{Name: "vi.green_ratio", Unit: "ratio", Better: "higher"},
	{Name: "vi.joins", Unit: "count", Better: "lower"},
	{Name: "vi.resets", Unit: "count", Better: "lower"},
	{Name: "vi.stalls", Unit: "count", Better: "lower"},
	{Name: "vi.max_stall", Unit: "count", Better: "lower"},
	{Name: "vi.node_ns_per_node_round", Unit: "ns", Better: "lower"},
	{Name: "vi.roundinput_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "vi.roundinput_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "vi.regionof_ns", Unit: "ns", Better: "lower"},
	{Name: "vi.monitor_observe_ns", Unit: "ns", Better: "lower"},
	{Name: "vi.monitor_report_us", Unit: "us", Better: "lower"},
	{Name: "vi.monitor_snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "vi.monitor_snapshot_kb", Unit: "KB", Better: "lower"},
	{Name: "cha.instance_ns", Unit: "ns", Better: "lower"},
	{Name: "checkpoint.capture_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "spec.parse_us", Unit: "us", Better: "lower"},
	{Name: "spec.build_ms", Unit: "ms", Better: "lower"},
	{Name: "service.step_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "service.scrape_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.scrape_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "service.checkpoint_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.status_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.http_floor_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.direct_vround_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.step_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "service.scrape_bytes", Unit: "B", Better: "lower"},
	{Name: "service.events_len", Unit: "count", Better: "lower"},
	{Name: "service.failed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "runtime.alloc_kb_per_round", Unit: "KB", Better: "lower"},
	{Name: "runtime.mallocs_per_round", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_count", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "runtime.gc_cpu_pct", Unit: "%", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is everything one run produced: the result line plus what a result
// file keeps beside it.
type run struct {
	Stamp    stamp          `json:"stamp"`
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Traced   bool           `json:"traced"`
	Result   result         `json:"result"`
	Samples  map[string]int `json:"samples"` // sample count behind each percentile
	Pinned   string         `json:"pinned"`  // "match", "unpinned" or the mismatch
	Sim      simStats       `json:"sim"`     // simulated statistics at the pin point
	Notes    []string       `json:"notes,omitempty"`

	values map[string]float64
	tracer *tracer
	totals []nameTotal // per-span-name sums of a traced run, set by execute
}

// set records a measured value under one of the defined names.
func (r *run) set(name string, v float64) {
	if r.values == nil {
		r.values = map[string]float64{}
	}
	r.values[name] = v
}

// setN records a percentile together with the sample count behind it.
func (r *run) setN(name string, v float64, n int) {
	r.set(name, v)
	if r.Samples == nil {
		r.Samples = map[string]int{}
	}
	r.Samples[name] = n
}

// fail marks the run incorrect: a wrong output fails every operation.
func (r *run) fail(format string, args ...any) {
	r.Result.Correct = false
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// seal builds the result's metric map: every end-to-end metric on an
// untraced run, every per-layer metric on a traced one. An end-to-end
// metric that was not measured, or any value that is not finite, makes
// the run incorrect.
func (r *run) seal() {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	r.Result.Metrics = make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok && !r.Traced {
			r.fail("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("metric %s is not finite", d.Name)
			v = 0
		}
		r.Result.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	if !r.Result.Correct {
		r.Result.Failed = r.Result.Attempted
	}
}

// stamp identifies the machine and build a result came from; -compare
// refuses to compare results whose core counts differ.
type stamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func machineStamp() stamp {
	s := stamp{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				s.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				s.Commit = kv.Value
			}
		}
	}
	return s
}

// appendRun appends one run as a JSON line to a result file.
func appendRun(path string, r *run) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
