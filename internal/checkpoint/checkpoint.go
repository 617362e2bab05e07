// Package checkpoint composes the per-layer snapshots into one versioned,
// self-validating checkpoint file: the engine layer (sim.EngineSnapshot,
// which carries every node's sim.Snapshotter blob — emulators, clients,
// moving nodes' legs, and the contention managers and programs inside
// them), the medium's configuration fingerprint
// (radio.Medium.AppendFingerprint, compared on restore, never decoded), the
// vi.Monitor accounting, and an opaque driver blob for whatever the
// experiment loop itself must remember (virtual-round cursor, churn
// counters, rosters). Encode frames the body with a magic string, a format
// version and a trailing wire.Digest, so ReadFile can reject truncated,
// corrupted or foreign files before any layer sees the bytes.
package checkpoint

import (
	"fmt"
	"os"

	"vinfra/internal/sim"
	"vinfra/internal/vi"
	"vinfra/internal/wire"
)

// magic identifies a checkpoint file; version is the format version, bumped
// whenever any layer's snapshot encoding changes shape.
const (
	magic   = "VINFCKPT"
	version = 1
)

// Checkpoint is one suspended run: everything needed to resume it on a
// freshly rebuilt deployment.
type Checkpoint struct {
	Engine sim.EngineSnapshot
	// Medium is the medium's fingerprint (radio.Medium.AppendFingerprint):
	// a restore refuses a rebuilt medium that writes other bytes.
	Medium  []byte
	Monitor vi.MonitorSnapshot
	// Driver is the experiment driver's own state, opaque at this layer.
	Driver []byte
}

// AppendTo appends the canonical encoding of the checkpoint body (without
// the file framing; see Encode) to dst.
func (c Checkpoint) AppendTo(dst []byte) []byte {
	dst = wire.AppendBytes(dst, c.Engine.AppendTo(nil))
	dst = wire.AppendBytes(dst, c.Medium)
	dst = wire.AppendBytes(dst, c.Monitor.AppendTo(nil))
	return wire.AppendBytes(dst, c.Driver)
}

// WireSize returns the exact encoded size of the checkpoint body.
func (c Checkpoint) WireSize() int {
	return wire.BytesSize(c.Engine.WireSize()) +
		wire.BytesSize(len(c.Medium)) +
		wire.BytesSize(c.Monitor.WireSize()) +
		wire.BytesSize(len(c.Driver))
}

// DecodeCheckpoint decodes one checkpoint body from b, which must contain
// exactly one encoding.
func DecodeCheckpoint(b []byte) (Checkpoint, error) {
	d := wire.Dec(b)
	var c Checkpoint
	eng, err := sim.DecodeEngineSnapshot(d.Bytes())
	if err != nil {
		return Checkpoint{}, err
	}
	c.Engine = eng
	c.Medium = append([]byte(nil), d.Bytes()...)
	mon, err := vi.DecodeMonitorSnapshot(d.Bytes())
	if err != nil {
		return Checkpoint{}, err
	}
	c.Monitor = mon
	c.Driver = append([]byte(nil), d.Bytes()...)
	if err := d.Finish(); err != nil {
		return Checkpoint{}, err
	}
	return c, nil
}

// Encode frames the checkpoint for storage: magic, version, length-prefixed
// body, and an FNV-1a digest of everything before it.
func (c Checkpoint) Encode() []byte {
	out := append([]byte(nil), magic...)
	out = wire.AppendUvarint(out, version)
	out = wire.AppendBytes(out, c.AppendTo(nil))
	return wire.AppendUint64(out, uint64(wire.DigestOf(out)))
}

// Decode parses a framed checkpoint produced by Encode, validating magic,
// version and digest.
func Decode(b []byte) (Checkpoint, error) {
	if len(b) < len(magic)+1+8 || string(b[:len(magic)]) != magic {
		return Checkpoint{}, fmt.Errorf("checkpoint: not a checkpoint file")
	}
	body := b[:len(b)-8]
	d := wire.Dec(b[len(b)-8:])
	if got, want := d.Uint64(), uint64(wire.DigestOf(body)); got != want {
		return Checkpoint{}, fmt.Errorf("checkpoint: digest mismatch (corrupt or truncated file)")
	}
	d = wire.Dec(body[len(magic):])
	if v := d.Uvarint(); v != version {
		return Checkpoint{}, fmt.Errorf("checkpoint: format version %d, this build reads %d", v, version)
	}
	c, err := DecodeCheckpoint(d.Bytes())
	if err != nil {
		return Checkpoint{}, err
	}
	if err := d.Finish(); err != nil {
		return Checkpoint{}, err
	}
	return c, nil
}

// WriteFile atomically writes the framed checkpoint to path (WriteAtomic),
// so a kill mid-write never leaves a torn checkpoint behind.
func (c Checkpoint) WriteFile(path string) error {
	return WriteAtomic(path, c.Encode())
}

// WriteAtomic writes data to path through a temp file in the same directory
// (path + ".tmp") and a rename, so a kill mid-write leaves path as it was or
// whole. When the write or the rename fails it removes the temp file it
// made and returns the error.
func WriteAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// ReadFile reads and validates a checkpoint written by WriteFile.
func ReadFile(path string) (Checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Checkpoint{}, err
	}
	return Decode(b)
}
