// Command chabench runs the reproduction experiment suite (E1–E14; there
// is no E10) through the internal/harness registry: the paper's Figure 2,
// the constant-overhead claims of Theorem 14, the Property 4 color
// invariant, the correctness theorems, the Section 4 emulation overhead and
// churn behaviour, the Section 1.5 baseline comparisons, the ablations, the
// metro churn-at-scale campaign (E11), the state-plane cost table (E12:
// radio rounds and wire bytes per virtual round on the wire-codec stack),
// the adversary robustness grid (E13), and the city-scale region-sharded
// campaign (E14: the same metro deployment on 1 and 8 shards, with a
// byte-identical "match" pin).
//
// Usage:
//
//	chabench                    # full suite, classic text tables
//	chabench -quick             # smaller parameter sweeps
//	chabench -only E2           # one experiment group (or sub-ID: E2a)
//	chabench -json              # machine-readable report on stdout
//	chabench -json -out f.json  # ... written to a file
//	chabench -seeds 1,2,3       # replicate every cell across seeds
//	chabench -parallel          # fan cells out over a worker pool
//
// Every value it prints is a simulated quantity — rounds, bytes, colours,
// availability — so for a fixed seed list the output is byte-identical from
// run to run and across worker counts (the go/machine header lines of a
// -json report aside).
//
// Profiling a run (see README "Profiling" for the workflow):
//
//	chabench -only E14 -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof -top cpu.out
//
// Host time is neither printed nor judged here: it is measured by the
// benchmark in bench/ and regressions are gated on a same-runner pair of
// its runs (`go run -C bench vinfra/bench --compare a b`).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"vinfra/internal/cli"
	_ "vinfra/internal/experiments" // registers E1..E14 descriptors
	"vinfra/internal/harness"
)

func main() {
	var (
		quick    = flag.Bool("quick", false, "run reduced parameter sweeps")
		only     = flag.String("only", "", "run a subset: comma-separated groups (E1..E14) or sub-IDs (E2a)")
		jsonOut  = flag.Bool("json", false, "emit the machine-readable JSON report instead of text tables")
		outPath  = flag.String("out", "", "write output to a file instead of stdout")
		seedsStr = flag.String("seeds", "", "comma-separated seed list replicated across every cell (default: per-experiment)")
		parallel = flag.Bool("parallel", false, "fan experiment cells out over a bounded worker pool")
		workers  = flag.Int("workers", 0, "worker-pool size; >1 implies -parallel (like sim.WithWorkers), 0 = GOMAXPROCS when -parallel is set")
		note     = flag.String("note", "", "free-form note recorded in the JSON header (machine, commit, ...)")

		profile cli.Profile
	)
	profile.Register(flag.CommandLine)
	soak := registerSoakFlags()
	flag.Parse()
	if flag.NArg() > 0 {
		// A bool flag takes no separate argument and the flag package stops
		// at the first positional: `-parallel false` or a bare `E2` would
		// otherwise run something other than what was typed.
		fmt.Fprintf(os.Stderr, "chabench: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	profiler, err := profile.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "chabench: %v\n", err)
		os.Exit(2)
	}
	defer profiler.Stop()
	// os.Exit skips defers; every exit below flushes the profiles first.
	exit := func(code int) {
		profiler.Stop()
		os.Exit(code)
	}

	if soak.exp != "" {
		out := os.Stdout
		if *outPath != "" {
			f, err := os.Create(*outPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "chabench: %v\n", err)
				exit(1)
			}
			code := runSoak(soak, *quick, f)
			f.Close()
			exit(code)
		}
		exit(runSoak(soak, *quick, out))
	}

	seeds, err := parseSeeds(*seedsStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chabench: %v\n", err)
		exit(2)
	}
	w := *workers
	if *parallel && w <= 0 {
		w = -1 // harness: negative means GOMAXPROCS
	}
	suite, err := harness.Run(harness.Options{
		Only:    *only,
		Quick:   *quick,
		Seeds:   seeds,
		Workers: w,
		Note:    *note,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "chabench: %v\n", err)
		exit(2)
	}

	out := os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chabench: %v\n", err)
			exit(1)
		}
		defer f.Close()
		out = f
	}
	if *jsonOut {
		if err := suite.WriteJSON(out); err != nil {
			fmt.Fprintf(os.Stderr, "chabench: %v\n", err)
			exit(1)
		}
		return
	}
	suite.RenderText(out)
}

func parseSeeds(s string) ([]int64, error) {
	if s == "" {
		return nil, nil
	}
	var seeds []int64
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		v, err := strconv.ParseInt(tok, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -seeds value %q", tok)
		}
		seeds = append(seeds, v)
	}
	return seeds, nil
}
