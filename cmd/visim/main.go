// Command visim runs an interactive virtual infrastructure simulation
// described by a deployment spec: a grid of virtual nodes running a VI
// application, roaming targets and tethered devices emulating the virtual
// nodes. It prints per-virtual-node availability, the world's join and
// reset counts (over every replica it attached), and — for the tracking
// app — where the trackers believe each target is versus where it actually
// is.
//
// The world is an internal/spec document, and -spec names it: the same
// document POST /v1/sims accepts, with identical results. -dump-spec prints
// the effective document (defaults materialized) without running:
//
//	visim -spec examples/tracking.json
//	visim -spec examples/tracking.json -dump-spec > world.json
//	visim -spec world.json
//
// A run can be suspended into a checkpoint file and resumed by a later
// process with identical results (the spec must match, since the
// checkpoint carries state, not configuration):
//
//	visim -spec world.json -checkpoint run.ckpt -checkpoint-every 40
//	visim -spec world.json -restore run.ckpt -checkpoint run.ckpt -checkpoint-every 40
//	visim -spec world.json -restore run.ckpt   # final segment prints the tables
//
// Profiling a run (see README "Profiling" for the workflow):
//
//	visim -spec world.json -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof -top cpu.out
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"vinfra/internal/cli"
	"vinfra/internal/harness"
	"vinfra/internal/spec"
	"vinfra/internal/vi"
)

func main() {
	specPath := flag.String("spec", "", "the deployment spec file to run (required)")
	dumpSpec := flag.Bool("dump-spec", false, "print the effective deployment spec and exit without running")
	var ckpt cli.Checkpoint
	ckpt.Register(flag.CommandLine)
	var profile cli.Profile
	profile.Register(flag.CommandLine)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "visim: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}
	if *specPath == "" {
		fmt.Fprintln(os.Stderr, "visim: -spec is required (examples/ holds documents to start from)")
		flag.Usage()
		os.Exit(2)
	}
	if err := ckpt.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "visim: %v\n", err)
		os.Exit(2)
	}
	b, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "visim: %v\n", err)
		os.Exit(2)
	}
	s, err := spec.Parse(b)
	if err != nil {
		fmt.Fprintf(os.Stderr, "visim: %s: %v\n", *specPath, err)
		os.Exit(2)
	}
	if *dumpSpec {
		os.Stdout.Write(s.JSON())
		return
	}

	profiler, err := profile.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "visim: %v\n", err)
		os.Exit(2)
	}
	defer profiler.Stop()
	// os.Exit skips defers; every exit below flushes the profiles first.
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format, args...)
		profiler.Stop()
		os.Exit(1)
	}

	w, err := spec.Build(s)
	if err != nil {
		fail("visim: %v\n", err)
	}
	defer w.Eng.Close()

	per := w.RoundsPerVRound()
	fmt.Printf("virtual infrastructure: %d virtual nodes, schedule length %d, %d radio rounds per virtual round\n",
		len(w.Locs), w.Dep.Schedule().Len(), per)
	fmt.Printf("devices: %d total (%d emulators, %d targets); running %d virtual rounds (%d radio rounds)\n\n",
		s.TotalDevices(), len(w.Locs)*s.Devices.Replicas, s.Devices.Targets, s.VRounds, s.VRounds*per)

	suspended, err := ckpt.Run(w)
	if err != nil {
		fail("visim: %v\n", err)
	}
	if suspended {
		fmt.Fprintf(os.Stderr, "visim: suspended at vround %d/%d -> %s\n", w.VRound(), w.VRounds(), ckpt.Path)
		return
	}

	sched := w.Dep.Schedule()
	vnTable := harness.NewTable("virtual nodes", "vn", "location", "slot", "availability")
	for v, loc := range w.Locs {
		rep := w.Report(vi.VNodeID(v))
		vnTable.AddRow(fmt.Sprintf("vn%d", v), loc.String(), strconv.Itoa(sched.SlotOf(vi.VNodeID(v))), harness.F(rep.Availability))
	}
	vnTable.Render(os.Stdout)

	if len(w.Targets) > 0 {
		trTable := harness.NewTable("tracking (observer at vn0)", "target", "believed", "actual", "error")
		for _, tg := range w.Targets {
			actual := w.Eng.Position(tg.ID)
			if believed, ok := w.Lookup(tg.Name); ok {
				trTable.AddRow(tg.Name, believed.String(), actual.String(), harness.F(believed.Dist(actual)))
			} else {
				trTable.AddRow(tg.Name, "(unknown)", actual.String(), "-")
			}
		}
		trTable.Render(os.Stdout)
	}

	fmt.Printf("joins: %d  resets: %d  transmissions: %d  max message: %d B\n",
		w.Joins(), w.Resets(), w.Eng.Stats().Transmissions, w.Eng.Stats().MaxMessageSize)
}
