// Snapshot encodings for the adversary plane. Every fault here is a pure
// function of (configuration, round) — none keeps mutable state across
// Strike calls (the id and victim buffers some reuse are scratch, filled
// afresh by every strike before it reads them) — so a checkpoint needs only
// the configuration, and these encodings exist to fingerprint it:
// sim.Engine.Restore folds each
// registered fault's AppendTo bytes into a digest and refuses a snapshot
// taken under a different adversary set. Eligible/Respawn closures are
// code, not state; they are excluded from the encodings and must be
// rebuilt by the driver that reconstructs the deployment (the decoders
// return them nil).

package faults

import (
	"vinfra/internal/geo"
	"vinfra/internal/sim"
	"vinfra/internal/wire"
)

// AppendTo appends the canonical encoding of w to dst.
func (w Window) AppendTo(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, uint64(w.From))
	return wire.AppendUvarint(dst, uint64(w.Until))
}

// WireSize returns the exact encoded size of w.
func (w Window) WireSize() int {
	return wire.UvarintSize(uint64(w.From)) + wire.UvarintSize(uint64(w.Until))
}

// DecodeWindow decodes one Window from d.
func DecodeWindow(d *wire.Decoder) (Window, error) {
	var w Window
	w.From = sim.Round(d.Uvarint())
	w.Until = sim.Round(d.Uvarint())
	return w, d.Err()
}

// AppendTo appends the canonical encoding of f to dst.
func (f RegionWipe) AppendTo(dst []byte) []byte {
	dst = wire.AppendFloat64(dst, f.Center.X)
	dst = wire.AppendFloat64(dst, f.Center.Y)
	dst = wire.AppendFloat64(dst, f.Radius)
	return wire.AppendUvarint(dst, uint64(f.At))
}

// WireSize returns the exact encoded size of f.
func (f RegionWipe) WireSize() int {
	return 8 + 8 + 8 + wire.UvarintSize(uint64(f.At))
}

// DecodeRegionWipe decodes one RegionWipe from d.
func DecodeRegionWipe(d *wire.Decoder) (RegionWipe, error) {
	var f RegionWipe
	f.Center.X = d.Float64()
	f.Center.Y = d.Float64()
	f.Radius = d.Float64()
	f.At = sim.Round(d.Uvarint())
	return f, d.Err()
}

// AppendTo appends the canonical encoding of f (minus the Eligible
// closure; see the package comment) to dst.
func (f CrashBurst) AppendTo(dst []byte) []byte {
	dst = f.Window.AppendTo(dst)
	dst = wire.AppendVarint(dst, int64(f.Period))
	dst = wire.AppendFloat64(dst, f.P)
	return wire.AppendVarint(dst, f.Seed)
}

// WireSize returns the exact encoded size of f.
func (f CrashBurst) WireSize() int {
	return f.Window.WireSize() + wire.VarintSize(int64(f.Period)) + 8 + wire.VarintSize(f.Seed)
}

// DecodeCrashBurst decodes one CrashBurst from d. Eligible is nil on the
// result; the driver rebuilds it.
func DecodeCrashBurst(d *wire.Decoder) (CrashBurst, error) {
	var f CrashBurst
	w, err := DecodeWindow(d)
	if err != nil {
		return CrashBurst{}, err
	}
	f.Window = w
	f.Period = int(d.Varint())
	f.P = d.Float64()
	f.Seed = d.Varint()
	return f, d.Err()
}

// AppendTo appends the canonical encoding of f (minus the Eligible and
// Respawn closures; see the package comment) to dst.
func (f ChurnStorm) AppendTo(dst []byte) []byte {
	dst = f.Window.AppendTo(dst)
	dst = wire.AppendVarint(dst, int64(f.Period))
	dst = wire.AppendVarint(dst, int64(f.Kills))
	return wire.AppendVarint(dst, f.Seed)
}

// WireSize returns the exact encoded size of f.
func (f ChurnStorm) WireSize() int {
	return f.Window.WireSize() + wire.VarintSize(int64(f.Period)) +
		wire.VarintSize(int64(f.Kills)) + wire.VarintSize(f.Seed)
}

// DecodeChurnStorm decodes one ChurnStorm from d. Eligible and Respawn are
// nil on the result; the driver rebuilds them.
func DecodeChurnStorm(d *wire.Decoder) (ChurnStorm, error) {
	var f ChurnStorm
	w, err := DecodeWindow(d)
	if err != nil {
		return ChurnStorm{}, err
	}
	f.Window = w
	f.Period = int(d.Varint())
	f.Kills = int(d.Varint())
	f.Seed = d.Varint()
	return f, d.Err()
}

// AppendTo appends the canonical encoding of f (minus the Eligible
// closure; see the package comment) to dst.
func (f Herd) AppendTo(dst []byte) []byte {
	dst = f.Window.AppendTo(dst)
	dst = wire.AppendFloat64(dst, f.Focus.X)
	dst = wire.AppendFloat64(dst, f.Focus.Y)
	dst = wire.AppendFloat64(dst, f.Frac)
	dst = wire.AppendFloat64(dst, f.Step)
	return wire.AppendVarint(dst, f.Seed)
}

// WireSize returns the exact encoded size of f.
func (f Herd) WireSize() int {
	return f.Window.WireSize() + 8 + 8 + 8 + 8 + wire.VarintSize(f.Seed)
}

// DecodeHerd decodes one Herd from d. Eligible is nil on the result; the
// driver rebuilds it.
func DecodeHerd(d *wire.Decoder) (Herd, error) {
	var f Herd
	w, err := DecodeWindow(d)
	if err != nil {
		return Herd{}, err
	}
	f.Window = w
	f.Focus.X = d.Float64()
	f.Focus.Y = d.Float64()
	f.Frac = d.Float64()
	f.Step = d.Float64()
	f.Seed = d.Varint()
	return f, d.Err()
}

// AppendTo appends the canonical encoding of f to dst.
func (f CellJammer) AppendTo(dst []byte) []byte {
	dst = f.Window.AppendTo(dst)
	dst = wire.AppendFloat64(dst, f.Bounds.Min.X)
	dst = wire.AppendFloat64(dst, f.Bounds.Min.Y)
	dst = wire.AppendFloat64(dst, f.Bounds.Max.X)
	dst = wire.AppendFloat64(dst, f.Bounds.Max.Y)
	dst = wire.AppendFloat64(dst, f.CellSize)
	dst = wire.AppendVarint(dst, int64(f.Cells))
	return wire.AppendVarint(dst, f.Seed)
}

// WireSize returns the exact encoded size of f.
func (f CellJammer) WireSize() int {
	return f.Window.WireSize() + 8*5 + wire.VarintSize(int64(f.Cells)) + wire.VarintSize(f.Seed)
}

// DecodeCellJammer decodes one CellJammer from d.
func DecodeCellJammer(d *wire.Decoder) (CellJammer, error) {
	var f CellJammer
	w, err := DecodeWindow(d)
	if err != nil {
		return CellJammer{}, err
	}
	f.Window = w
	f.Bounds.Min.X = d.Float64()
	f.Bounds.Min.Y = d.Float64()
	f.Bounds.Max.X = d.Float64()
	f.Bounds.Max.Y = d.Float64()
	f.CellSize = d.Float64()
	f.Cells = int(d.Varint())
	f.Seed = d.Varint()
	return f, d.Err()
}

// AppendTo appends the canonical encoding of f to dst.
func (f RegionJammer) AppendTo(dst []byte) []byte {
	dst = f.Window.AppendTo(dst)
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

// WireSize returns the exact encoded size of f.
func (f RegionJammer) WireSize() int {
	return f.Window.WireSize() + wire.UvarintSize(uint64(len(f.Targets))) +
		16*len(f.Targets) + 8 + wire.VarintSize(int64(f.Period)) +
		wire.VarintSize(int64(f.Burst)) + wire.VarintSize(int64(f.Rotate)) +
		wire.VarintSize(f.Seed)
}

// DecodeRegionJammer decodes one RegionJammer from d.
func DecodeRegionJammer(d *wire.Decoder) (RegionJammer, error) {
	var f RegionJammer
	w, err := DecodeWindow(d)
	if err != nil {
		return RegionJammer{}, err
	}
	f.Window = w
	nt := d.Uvarint()
	if nt > uint64(d.Rem()) {
		return RegionJammer{}, wire.ErrMalformed
	}
	f.Targets = make([]geo.Point, 0, nt)
	for i := uint64(0); i < nt; i++ {
		var p geo.Point
		p.X = d.Float64()
		p.Y = d.Float64()
		f.Targets = append(f.Targets, p)
	}
	f.Radius = d.Float64()
	f.Period = int(d.Varint())
	f.Burst = int(d.Varint())
	f.Rotate = int(d.Varint())
	f.Seed = d.Varint()
	return f, d.Err()
}
