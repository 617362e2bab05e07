// Package cli holds the flag families every vinfra command wires the same
// way — profiling and checkpointing — so cmd/visim, cmd/chabench and
// cmd/visimd register identical flags with identical semantics instead of
// copy-pasting the wiring.
package cli

import (
	"flag"
	"fmt"

	"vinfra/internal/checkpoint"
)

// Checkpoint is the -checkpoint/-checkpoint-every/-restore flag family of
// a resumable run.
type Checkpoint struct {
	// Path is the checkpoint file to write (at Every, and when the run
	// completes).
	Path string
	// Every suspends to Path after this many virtual rounds in this
	// invocation; 0 runs to completion.
	Every int
	// Restore resumes from this checkpoint file.
	Restore string
}

// Register installs the checkpoint flags on fs.
func (c *Checkpoint) Register(fs *flag.FlagSet) {
	fs.StringVar(&c.Path, "checkpoint", "", "checkpoint file to write (at -checkpoint-every, and again when the run completes)")
	fs.IntVar(&c.Every, "checkpoint-every", 0, "suspend to -checkpoint after this many virtual rounds in this invocation (0 = run to completion)")
	fs.StringVar(&c.Restore, "restore", "", "resume from this checkpoint file (the configuration must match the suspended run)")
}

// Validate enforces the family's cross-flag constraint.
func (c *Checkpoint) Validate() error {
	if c.Every > 0 && c.Path == "" {
		return fmt.Errorf("-checkpoint-every needs -checkpoint FILE to write to")
	}
	if c.Every < 0 {
		return fmt.Errorf("-checkpoint-every must not be negative (got %d)", c.Every)
	}
	return nil
}

// Resumable is a run the checkpoint flags suspend and resume: a spec world
// (cmd/visim) or a soak cell (chabench -soak).
type Resumable interface {
	VRound() int
	VRounds() int
	StepVRound()
	Checkpoint() checkpoint.Checkpoint
	Restore(checkpoint.Checkpoint) error
}

// Run is one segment of a resumable run: it restores r from c.Restore when
// set, then steps it to completion — or, with c.Every set, for at most
// c.Every virtual rounds, suspending to c.Path (suspended is true) if the
// run is not done by then. A completed run is written to c.Path too when
// it is set, so the final state can be archived.
func (c *Checkpoint) Run(r Resumable) (suspended bool, err error) {
	if c.Restore != "" {
		cp, err := checkpoint.ReadFile(c.Restore)
		if err != nil {
			return false, err
		}
		if err := r.Restore(cp); err != nil {
			return false, fmt.Errorf("restore %s: %w (does the configuration match the suspended run?)", c.Restore, err)
		}
	}
	for stepped := 0; r.VRound() < r.VRounds(); stepped++ {
		if c.Every > 0 && stepped == c.Every {
			return true, r.Checkpoint().WriteFile(c.Path)
		}
		r.StepVRound()
	}
	if c.Path != "" {
		return false, r.Checkpoint().WriteFile(c.Path)
	}
	return false, nil
}
