// Package cli holds the flag families every vinfra command wires the same
// way — profiling and checkpointing — so cmd/visim, cmd/chabench and
// cmd/visimd register identical flags with identical semantics instead of
// copy-pasting the wiring.
package cli

import (
	"flag"
	"fmt"
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
