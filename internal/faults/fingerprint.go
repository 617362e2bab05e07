// Fingerprints for the adversary plane. Every fault here is a pure
// function of (configuration, round) — none keeps mutable state across
// Strike calls (the id and victim buffers some reuse are scratch, filled
// afresh by every strike before it reads them) — so a checkpoint needs only
// the configuration, and these encodings exist to fingerprint it: each
// adversary is a sim.Fingerprinter, sim.Engine.Restore folds every
// registered fault's fingerprint into a digest, radio.Medium.Restore does
// the same for its adversary, and both refuse a snapshot taken under a
// different adversary set. The encodings are one-way: nothing decodes
// them. Eligible/Respawn closures are code, not state; they are excluded
// and must be rebuilt by the driver that reconstructs the deployment.
//
// The bytes are frozen: EngineSnapshot.FaultDigest and every pinned
// checkpoint digest fold them in (TestAdversaryFingerprintsPinned).

package faults

import (
	"fmt"

	"vinfra/internal/sim"
	"vinfra/internal/wire"
)

// AppendFingerprint appends w's fingerprint to dst.
func (w Window) AppendFingerprint(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, uint64(w.From))
	return wire.AppendUvarint(dst, uint64(w.Until))
}

// AppendFingerprint appends f's fingerprint to dst.
func (f RegionWipe) AppendFingerprint(dst []byte) []byte {
	dst = wire.AppendFloat64(dst, f.Center.X)
	dst = wire.AppendFloat64(dst, f.Center.Y)
	dst = wire.AppendFloat64(dst, f.Radius)
	return wire.AppendUvarint(dst, uint64(f.At))
}

// AppendFingerprint appends f's fingerprint (minus the Eligible closure) to
// dst.
func (f CrashBurst) AppendFingerprint(dst []byte) []byte {
	dst = f.Window.AppendFingerprint(dst)
	dst = wire.AppendVarint(dst, int64(f.Period))
	dst = wire.AppendFloat64(dst, f.P)
	return wire.AppendVarint(dst, f.Seed)
}

// AppendFingerprint appends f's fingerprint (minus the Eligible and Respawn
// closures) to dst.
func (f ChurnStorm) AppendFingerprint(dst []byte) []byte {
	dst = f.Window.AppendFingerprint(dst)
	dst = wire.AppendVarint(dst, int64(f.Period))
	dst = wire.AppendVarint(dst, int64(f.Kills))
	return wire.AppendVarint(dst, f.Seed)
}

// AppendFingerprint appends f's fingerprint (minus the Eligible closure) to
// dst.
func (f Herd) AppendFingerprint(dst []byte) []byte {
	dst = f.Window.AppendFingerprint(dst)
	dst = wire.AppendFloat64(dst, f.Focus.X)
	dst = wire.AppendFloat64(dst, f.Focus.Y)
	dst = wire.AppendFloat64(dst, f.Frac)
	dst = wire.AppendFloat64(dst, f.Step)
	return wire.AppendVarint(dst, f.Seed)
}

// AppendFingerprint appends f's fingerprint to dst.
func (f CellJammer) AppendFingerprint(dst []byte) []byte {
	dst = f.Window.AppendFingerprint(dst)
	dst = wire.AppendFloat64(dst, f.Bounds.Min.X)
	dst = wire.AppendFloat64(dst, f.Bounds.Min.Y)
	dst = wire.AppendFloat64(dst, f.Bounds.Max.X)
	dst = wire.AppendFloat64(dst, f.Bounds.Max.Y)
	dst = wire.AppendFloat64(dst, f.CellSize)
	dst = wire.AppendVarint(dst, int64(f.Cells))
	return wire.AppendVarint(dst, f.Seed)
}

// AppendFingerprint appends f's fingerprint to dst.
func (f RegionJammer) AppendFingerprint(dst []byte) []byte {
	dst = f.Window.AppendFingerprint(dst)
	dst = wire.AppendUvarint(dst, uint64(len(f.Targets)))
	for _, t := range f.Targets {
		dst = wire.AppendFloat64(dst, t.X)
		dst = wire.AppendFloat64(dst, t.Y)
	}
	dst = wire.AppendFloat64(dst, f.Radius)
	dst = wire.AppendVarint(dst, int64(f.Period))
	dst = wire.AppendVarint(dst, int64(f.Burst))
	dst = wire.AppendVarint(dst, int64(f.Rotate))
	return wire.AppendVarint(dst, f.Seed)
}

// AppendFingerprint appends the members' fingerprints to dst in order, each
// length-prefixed; a member without one contributes its type name, as a
// lone adversary does in radio.Medium's snapshot.
func (js Jammers) AppendFingerprint(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(js)))
	for _, j := range js {
		if fp, ok := j.(sim.Fingerprinter); ok {
			dst = wire.AppendBytes(dst, fp.AppendFingerprint(nil))
		} else {
			dst = wire.AppendString(dst, fmt.Sprintf("%T", j))
		}
	}
	return dst
}
