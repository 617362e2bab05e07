package radio

import (
	"fmt"

	"vinfra/internal/sim"
	"vinfra/internal/wire"
)

// MediumSnapshot is the medium's layer of a checkpoint. A Medium has no
// mutable behavioral state — every draw is a pure (Seed, round, receiver)
// hash and the grid index is per-round scratch — so the snapshot is a
// configuration fingerprint: Restore validates that a rebuilt medium
// matches the one the snapshot was taken from instead of copying state
// into it. Detector and Adversary are recorded as fingerprints (type name,
// or the adversary's sim.Fingerprinter encoding when it has one) for the
// same reason.
type MediumSnapshot struct {
	R1, R2               float64
	GrayZoneDeliveryProb float64
	Seed                 int64
	// Adversary fingerprints the configured adversary: 0 when nil, the
	// wire.Digest of its AppendFingerprint bytes when it is a
	// sim.Fingerprinter, the digest of its type name otherwise.
	Adversary uint64
	// Detector is the detector's type name (all cd detectors are
	// stateless empty structs).
	Detector string
}

// AppendTo appends the canonical encoding of s to dst.
func (s MediumSnapshot) AppendTo(dst []byte) []byte {
	dst = wire.AppendFloat64(dst, s.R1)
	dst = wire.AppendFloat64(dst, s.R2)
	dst = wire.AppendFloat64(dst, s.GrayZoneDeliveryProb)
	dst = wire.AppendVarint(dst, s.Seed)
	dst = wire.AppendUint64(dst, s.Adversary)
	return wire.AppendString(dst, s.Detector)
}

// WireSize returns the exact encoded size of s.
func (s MediumSnapshot) WireSize() int {
	return 8 + 8 + 8 + wire.VarintSize(s.Seed) + 8 + wire.BytesSize(len(s.Detector))
}

// DecodeMediumSnapshot decodes a MediumSnapshot from b, which must contain
// exactly one encoding.
func DecodeMediumSnapshot(b []byte) (MediumSnapshot, error) {
	d := wire.Dec(b)
	var s MediumSnapshot
	s.R1 = d.Float64()
	s.R2 = d.Float64()
	s.GrayZoneDeliveryProb = d.Float64()
	s.Seed = d.Varint()
	s.Adversary = d.Uint64()
	s.Detector = d.String()
	if err := d.Finish(); err != nil {
		return MediumSnapshot{}, err
	}
	return s, nil
}

// Snapshot fingerprints the medium's configuration; see MediumSnapshot.
func (m *Medium) Snapshot() MediumSnapshot {
	return MediumSnapshot{
		R1:                   m.cfg.Radii.R1,
		R2:                   m.cfg.Radii.R2,
		GrayZoneDeliveryProb: m.cfg.GrayZoneDeliveryProb,
		Seed:                 m.cfg.Seed,
		Adversary:            adversaryDigest(m.cfg.Adversary),
		Detector:             fmt.Sprintf("%T", m.cfg.Detector),
	}
}

// Restore validates that m's configuration matches the snapshot. It never
// mutates the medium (there is nothing to restore); a mismatch means the
// caller rebuilt a different world than the snapshot was taken from.
func (m *Medium) Restore(s MediumSnapshot) error {
	if got := m.Snapshot(); got != s {
		return fmt.Errorf("radio: restore: medium config %+v does not match snapshot %+v", got, s)
	}
	return nil
}

func adversaryDigest(a Adversary) uint64 {
	if a == nil {
		return 0
	}
	if fp, ok := a.(sim.Fingerprinter); ok {
		return uint64(wire.DigestOf(fp.AppendFingerprint(nil)))
	}
	return uint64(wire.DigestOf([]byte(fmt.Sprintf("%T", a))))
}
