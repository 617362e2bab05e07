// Command bench is this repository's benchmark: five named workloads over
// the round engine, the virtual-infrastructure stack and the visimd
// service, each reporting the end-to-end metrics of BENCHMARK.json on an
// untraced run and the per-layer metrics on a traced one, and each checking
// the simulated statistics of the run against bench/expect.json.
//
// The package is a module of its own (bench/go.mod, replacing vinfra with
// the parent directory), so every command runs in this directory:
//
//	go run -C bench vinfra/bench --workload city-100k --seed 1 --seconds 10 --trace 0
//	go run -C bench vinfra/bench                                # every workload, untraced
//	go run -C bench vinfra/bench --trace 1                      # per-layer metrics + span files
//	go run -C bench vinfra/bench --runs 10 --json a.jsonl       # a result set
//	go run -C bench vinfra/bench --compare a.jsonl b.jsonl      # judge b against a
//	go run -C bench vinfra/bench --pin 1,2                      # rewrite expect.json
//
// The last line of a single-workload run's standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run (or \"all\")")
		seed    = flag.Int64("seed", 1, "workload seed; every input is generated from it")
		seconds = flag.Float64("seconds", 10, "length of the steady (timed) phase")
		trace   = flag.Int("trace", 0, "1: traced run — per-layer metrics and a span file under -out")
		out     = flag.String("out", ".bench_out", "directory for span files and the service workload's state")
		jsonl   = flag.String("json", "", "append every run to this result file (JSON lines)")
		runs    = flag.Int("runs", 1, "runs per workload, on seeds seed, seed+1, ...")
		compare = flag.Bool("compare", false, "compare two result files: bench --compare a.jsonl b.jsonl")
		pin     = flag.String("pin", "", "comma-separated seeds: rewrite expect.json from this build and exit")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(2, "usage: bench --compare a.jsonl b.jsonl")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *pin != "":
		if err := pinSeeds(*pin, *out); err != nil {
			fatal(1, "%v", err)
		}
		return
	}

	var todo []*workload
	if *name == "all" {
		todo = workloads
	} else if wl := workloadByName(*name); wl != nil {
		todo = []*workload{wl}
	} else {
		fatal(2, "unknown workload %q", *name)
	}
	if *seconds <= 0 || *runs < 1 || (*trace != 0 && *trace != 1) {
		fatal(2, "need --seconds > 0, --runs >= 1 and --trace 0 or 1")
	}

	ok := true
	for _, wl := range todo {
		for i := 0; i < *runs; i++ {
			cfg := config{seed: *seed + int64(i), seconds: *seconds, traced: *trace == 1, out: *out}
			r := execute(wl, cfg)
			r.print(os.Stdout)
			if *jsonl != "" {
				if err := appendRun(*jsonl, r); err != nil {
					fatal(1, "%v", err)
				}
			}
			ok = ok && r.Result.Correct
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}

// execute runs one workload once, seals its result and writes the span
// file of a traced run.
func execute(wl *workload, cfg config) *run {
	r := wl.run(wl, cfg)
	defer r.seal() // last, so that a span file that cannot be written fails the run
	if r.tracer != nil {
		if err := os.MkdirAll(cfg.out, 0o755); err != nil {
			r.fail("span file: %v", err)
			return r
		}
		spans := r.tracer.finish()
		r.totals = totalsByName(spans)
		path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", wl.name, cfg.seed))
		f := traceFile{Stamp: r.Stamp, Workload: wl.name, Seed: cfg.seed, Totals: r.totals, Spans: spans}
		if err := writeTrace(path, f); err != nil {
			r.fail("span file: %v", err)
		} else {
			r.Notes = append(r.Notes, "spans written to "+path)
		}
	}
	return r
}

// print writes the run for a reader — one line per metric, name first,
// sorted — and then the result object as the last line.
func (r *run) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d seconds %g traced %v | %s, nproc %d, GOMAXPROCS %d, %s, commit %s\n",
		r.Workload, r.Seed, r.Seconds, r.Traced, r.Stamp.CPU, r.Stamp.NProc, r.Stamp.GOMAXPROCS, r.Stamp.Go, r.Stamp.Commit)
	names := make([]string, 0, len(r.Result.Metrics))
	for n := range r.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Result.Metrics[n]
		line := fmt.Sprintf("  %-32s %14.4f %s", n, m.Value, m.Unit)
		if c, ok := r.Samples[n]; ok {
			line += fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "  ops %d failed %d | simulated statistics: %s | pin point: vround %d digest %s availability %.4f attached %d alive %d joins %d resets %d\n",
		r.Result.Attempted, r.Result.Failed, r.Pinned, r.Sim.VRound, r.Sim.Digest, r.Sim.Availability,
		r.Sim.Attached, r.Sim.Alive, r.Sim.Joins, r.Sim.Resets)
	for _, n := range r.Notes {
		fmt.Fprintln(w, "  note:", n)
	}
	for _, t := range r.totals {
		fmt.Fprintf(w, "  span %-28s count %7d total %12.3f ms self %12.3f ms\n", t.Name, t.Count, t.TotalMs, t.SelfMs)
	}
	b, err := json.Marshal(r.Result)
	if err != nil {
		panic(err)
	}
	fmt.Fprintln(w, string(b))
}

// pinSeeds runs every workload's setup and warm-up on the given seeds and
// rewrites expect.json (in the working directory, which go run -C bench
// makes this one) with the statistics at the pin point. Run it after a
// change that is meant to alter simulated behaviour or the checkpoint
// encoding — never to make a failing run pass.
func pinSeeds(list, out string) error {
	exp := expectations{}
	for _, f := range strings.Split(list, ",") {
		seed, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return fmt.Errorf("--pin: %w", err)
		}
		for _, wl := range workloads {
			// The shortest possible steady phase: the pin point precedes it.
			r := wl.run(wl, config{seed: seed, seconds: 1e-9, out: out})
			if r.Sim.Digest == "" {
				return fmt.Errorf("%s seed %d did not reach its pin point: %v", wl.name, seed, r.Notes)
			}
			if exp[wl.name] == nil {
				exp[wl.name] = map[string]simStats{}
			}
			exp[wl.name][strconv.FormatInt(seed, 10)] = r.Sim
			fmt.Printf("pinned %s seed %d: digest %s\n", wl.name, seed, r.Sim.Digest)
		}
	}
	return writeExpectations("expect.json", exp)
}
