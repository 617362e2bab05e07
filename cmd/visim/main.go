// Command visim runs an interactive virtual infrastructure simulation
// described by a deployment spec: a grid of virtual nodes running a VI
// application, roaming targets and tethered devices emulating the virtual
// nodes. It prints per-virtual-node availability, join/reset counts, and —
// for the tracking app — where the trackers believe each target is versus
// where it actually is.
//
// The world is an internal/spec document. The classic flags are shorthand
// that visim translates into a spec; -dump-spec prints the effective spec
// (defaults materialized) without running, and -spec runs a spec file
// as-is — the same document POST /v1/sims accepts, with identical results:
//
//	visim -grid 3x3 -targets 2 -devices 4 -vrounds 120 -seed 7
//	visim -grid 3x3 -targets 2 -dump-spec > world.json
//	visim -spec world.json
//	visim -grid 8x8 -devices 16 -parallel   # shard rounds across cores
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
//	visim -grid 8x8 -devices 16 -parallel -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof -top cpu.out
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"vinfra/internal/checkpoint"
	"vinfra/internal/cli"
	"vinfra/internal/harness"
	"vinfra/internal/spec"
	"vinfra/internal/vi"
)

func main() {
	gridSpec := flag.String("grid", "2x2", "virtual node grid (CxR)")
	spacing := flag.Float64("spacing", 6, "grid spacing")
	devices := flag.Int("devices", 3, "devices tethered per virtual node")
	targets := flag.Int("targets", 2, "mobile targets to track")
	vrounds := flag.Int("vrounds", 60, "virtual rounds to simulate")
	seed := flag.Int64("seed", 1, "simulation seed")
	parallel := flag.Bool("parallel", false, "shard round delivery and node fan-out across CPU cores (same seed, same output)")
	specPath := flag.String("spec", "", "run this deployment spec file instead of the world flags")
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
	if err := ckpt.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "visim: %v\n", err)
		os.Exit(2)
	}

	var s spec.Spec
	if *specPath != "" {
		worldFlags := map[string]bool{
			"grid": true, "spacing": true, "devices": true, "targets": true,
			"vrounds": true, "seed": true, "parallel": true,
		}
		conflict := ""
		flag.Visit(func(f *flag.Flag) {
			if worldFlags[f.Name] {
				conflict = f.Name
			}
		})
		if conflict != "" {
			fmt.Fprintf(os.Stderr, "visim: -%s conflicts with -spec (the spec file describes the whole world)\n", conflict)
			os.Exit(2)
		}
		b, err := os.ReadFile(*specPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "visim: %v\n", err)
			os.Exit(2)
		}
		if s, err = spec.Parse(b); err != nil {
			fmt.Fprintf(os.Stderr, "visim: %s: %v\n", *specPath, err)
			os.Exit(2)
		}
	} else {
		var cols, rows int
		if _, err := fmt.Sscanf(*gridSpec, "%dx%d", &cols, &rows); err != nil || cols < 1 || rows < 1 {
			fmt.Fprintf(os.Stderr, "visim: bad -grid %q\n", *gridSpec)
			os.Exit(2)
		}
		s = spec.Spec{
			Version: spec.Version,
			Seed:    *seed,
			VRounds: *vrounds,
			Grid:    spec.Grid{Cols: cols, Rows: rows, Spacing: *spacing},
			App:     "tracker",
			Devices: spec.Devices{Replicas: *devices, Targets: *targets},
			Engine:  spec.Engine{Parallel: *parallel},
		}
		s.ApplyDefaults()
		if err := s.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "visim: %v\n", err)
			os.Exit(2)
		}
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

	if ckpt.Restore != "" {
		cp, err := checkpoint.ReadFile(ckpt.Restore)
		if err != nil {
			fail("visim: %v\n", err)
		}
		if err := w.Restore(cp); err != nil {
			fail("visim: restore %s: %v (does the spec match the suspended run?)\n", ckpt.Restore, err)
		}
	}

	stepped := 0
	for w.VRound() < w.VRounds() {
		if ckpt.Every > 0 && stepped == ckpt.Every {
			if err := w.Checkpoint().WriteFile(ckpt.Path); err != nil {
				fail("visim: %v\n", err)
			}
			fmt.Fprintf(os.Stderr, "visim: suspended at vround %d/%d -> %s\n", w.VRound(), w.VRounds(), ckpt.Path)
			return
		}
		w.StepVRound()
		stepped++
	}
	if ckpt.Path != "" {
		if err := w.Checkpoint().WriteFile(ckpt.Path); err != nil {
			fail("visim: %v\n", err)
		}
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
