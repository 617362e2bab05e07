package cli

import (
	"errors"
	"flag"
	"io"
	"path/filepath"
	"testing"

	"vinfra/internal/checkpoint"
)

func newFS() *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

func TestCheckpointFlags(t *testing.T) {
	var c Checkpoint
	fs := newFS()
	c.Register(fs)
	if err := fs.Parse([]string{"-checkpoint", "f.ckpt", "-checkpoint-every", "3", "-restore", "g.ckpt"}); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if c.Path != "f.ckpt" || c.Every != 3 || c.Restore != "g.ckpt" {
		t.Fatalf("parsed %+v", c)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestCheckpointValidate(t *testing.T) {
	if err := (&Checkpoint{Every: 3}).Validate(); err == nil {
		t.Fatal("-checkpoint-every without -checkpoint accepted")
	}
	if err := (&Checkpoint{Path: "f", Every: -1}).Validate(); err == nil {
		t.Fatal("negative -checkpoint-every accepted")
	}
	if err := (&Checkpoint{}).Validate(); err != nil {
		t.Fatalf("zero value rejected: %v", err)
	}
}

// counter is a Resumable whose whole state is its virtual-round cursor,
// carried in the checkpoint's driver blob.
type counter struct{ vr, horizon int }

func (c *counter) VRound() int  { return c.vr }
func (c *counter) VRounds() int { return c.horizon }
func (c *counter) StepVRound()  { c.vr++ }
func (c *counter) Checkpoint() checkpoint.Checkpoint {
	return checkpoint.Checkpoint{Driver: []byte{byte(c.vr)}}
}
func (c *counter) Restore(cp checkpoint.Checkpoint) error {
	if len(cp.Driver) != 1 {
		return errors.New("bad driver blob")
	}
	c.vr = int(cp.Driver[0])
	return nil
}

// TestCheckpointRunSegments drives a 7-round run in 3-round segments, each
// on a fresh run restored from the last segment's file: two suspend, the
// third completes and writes the final state.
func TestCheckpointRunSegments(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	c := Checkpoint{Path: path, Every: 3}
	for _, want := range []int{3, 6} {
		r := &counter{horizon: 7}
		suspended, err := c.Run(r)
		if err != nil || !suspended || r.vr != want {
			t.Fatalf("segment: suspended=%v err=%v at vround %d, want suspended at %d", suspended, err, r.vr, want)
		}
		c.Restore = path
	}
	r := &counter{horizon: 7}
	if suspended, err := c.Run(r); err != nil || suspended || r.vr != 7 {
		t.Fatalf("final segment: suspended=%v err=%v at vround %d, want done at 7", suspended, err, r.vr)
	}
	cp, err := checkpoint.ReadFile(path)
	if err != nil || len(cp.Driver) != 1 || cp.Driver[0] != 7 {
		t.Fatalf("final checkpoint = %v, %v; want the completed run", cp.Driver, err)
	}

	straight := &counter{horizon: 7}
	if suspended, err := (&Checkpoint{}).Run(straight); err != nil || suspended || straight.vr != 7 {
		t.Fatalf("straight run: suspended=%v err=%v at vround %d", suspended, err, straight.vr)
	}
	missing := Checkpoint{Restore: filepath.Join(t.TempDir(), "none.ckpt")}
	if _, err := missing.Run(&counter{horizon: 7}); err == nil {
		t.Fatal("restoring from a missing file succeeded")
	}
}

func TestProfileFlagsAndStart(t *testing.T) {
	var p Profile
	fs := newFS()
	p.Register(fs)
	cpu := filepath.Join(t.TempDir(), "cpu.out")
	if err := fs.Parse([]string{"-cpuprofile", cpu}); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if p.CPU != cpu || p.Mem != "" {
		t.Fatalf("parsed %+v", p)
	}
	profiler, err := p.Start()
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	profiler.Stop()
	profiler.Stop() // idempotent
}

func TestProfileStartRejectsBadPath(t *testing.T) {
	p := Profile{CPU: filepath.Join(t.TempDir(), "no", "such", "dir", "cpu.out")}
	if _, err := p.Start(); err == nil {
		t.Fatal("unwritable profile path accepted")
	}
}
