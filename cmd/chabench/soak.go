// Soak mode: run one cell of a soakable experiment (E11, E13, E14) as a
// resumable job. The run can be suspended into a checkpoint file after a
// fixed number of virtual rounds and resumed — by a fresh process — with
// output byte-identical to an uninterrupted run. This is how the nightly
// soaks survive job time limits: each CI step executes one segment,
// killing the process in between, and the final segment's stdout is
// diffed against an uninterrupted baseline.
//
//	chabench -soak E13 -quick                                  # straight run
//	chabench -soak E13 -quick -checkpoint f -checkpoint-every 3 # segment 1
//	chabench -soak E13 -quick -restore f -checkpoint f -checkpoint-every 3
//	chabench -soak E13 -quick -restore f                       # final segment
//
// Segments that stop early write the checkpoint and exit 0 with nothing
// on stdout (a progress note goes to stderr); the completing invocation
// prints the cell's result rows, which are byte-stable across machines and
// segmentations. When -checkpoint is set on the completing invocation, the
// finished run's state is written there too, so CI can archive the final
// checkpoint.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"vinfra/internal/checkpoint"
	"vinfra/internal/cli"
	"vinfra/internal/experiments"
	"vinfra/internal/harness"
)

// soakFlags holds the -soak flag family, registered next to the main flag
// set and acted on before the suite runner. The checkpoint trio comes from
// internal/cli, shared with cmd/visim.
type soakFlags struct {
	exp     string
	cell    string
	seed    int64
	shards  int
	vrounds int
	ckpt    cli.Checkpoint
}

func registerSoakFlags() *soakFlags {
	var s soakFlags
	flag.StringVar(&s.exp, "soak", "", "run one cell of a soakable experiment (E11, E13 or E14) as a resumable job")
	flag.StringVar(&s.cell, "cell", "", "cell label within the -soak experiment's grid (default: first cell)")
	flag.Int64Var(&s.seed, "soakseed", 1, "seed for the -soak cell")
	flag.IntVar(&s.shards, "shards", 0, "region shards for the -soak run (0 = experiment default)")
	flag.IntVar(&s.vrounds, "soak-vrounds", 0, "override the -soak cell's virtual-round horizon (0 = grid value)")
	s.ckpt.Register(flag.CommandLine)
	return &s
}

// runSoak executes one soak segment and returns the process exit code.
func runSoak(f *soakFlags, quick bool, out io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "chabench: soak: %v\n", err)
		return 2
	}
	if err := f.ckpt.Validate(); err != nil {
		return fail(err)
	}
	cell, err := soakCell(f, quick)
	if err != nil {
		return fail(err)
	}
	s, err := experiments.NewSoak(f.exp, cell, f.shards)
	if err != nil {
		return fail(err)
	}
	if f.ckpt.Restore != "" {
		cp, err := checkpoint.ReadFile(f.ckpt.Restore)
		if err != nil {
			return fail(err)
		}
		if err := s.Restore(cp); err != nil {
			return fail(fmt.Errorf("restore %s: %v", f.ckpt.Restore, err))
		}
	}

	stepped := 0
	for s.VRound() < s.VRounds() {
		if f.ckpt.Every > 0 && stepped == f.ckpt.Every {
			if err := s.Checkpoint().WriteFile(f.ckpt.Path); err != nil {
				return fail(err)
			}
			fmt.Fprintf(os.Stderr, "chabench: soak: %s %s suspended at vround %d/%d -> %s\n",
				f.exp, cell.Params.Label, s.VRound(), s.VRounds(), f.ckpt.Path)
			return 0
		}
		s.StepVRound()
		stepped++
	}

	if f.ckpt.Path != "" {
		if err := s.Checkpoint().WriteFile(f.ckpt.Path); err != nil {
			return fail(err)
		}
	}
	fmt.Fprintf(out, "%s\t%s\tseed=%d\tshards=%d\n", f.exp, cell.Params.Label, f.seed, f.shards)
	fmt.Fprintln(out, strings.Join(s.Columns(), "\t"))
	for _, row := range s.Rows() {
		fmt.Fprintln(out, strings.Join(harness.Texts(row), "\t"))
	}
	return 0
}

func soakDescriptor(exp string) (harness.Descriptor, error) {
	for _, d := range harness.All() {
		if d.ID == exp {
			return d, nil
		}
	}
	return harness.Descriptor{}, fmt.Errorf("unknown experiment %q", exp)
}

// soakCell resolves the -cell label against the experiment's grid (the
// quick or full variant, matching -quick) so a soak runs exactly the cell
// the suite would.
func soakCell(f *soakFlags, quick bool) (*harness.Cell, error) {
	d, err := soakDescriptor(f.exp)
	if err != nil {
		return nil, err
	}
	grid := d.Grid(quick)
	var params *harness.Params
	for i := range grid {
		if f.cell == "" || grid[i].Label == f.cell {
			params = &grid[i]
			break
		}
	}
	if params == nil {
		var labels []string
		for _, p := range grid {
			labels = append(labels, p.Label)
		}
		return nil, fmt.Errorf("no cell %q in %s (quick=%v); have %s",
			f.cell, f.exp, quick, strings.Join(labels, ", "))
	}
	if f.vrounds > 0 {
		params.Ints["vrounds"] = f.vrounds
	}
	return &harness.Cell{Params: *params, Seed: f.seed}, nil
}
