package radio

import (
	"fmt"

	"vinfra/internal/sim"
	"vinfra/internal/wire"
)

// AppendFingerprint implements sim.Fingerprinter; its bytes are the
// medium's section of a checkpoint. A Medium has no mutable behavioral
// state — every draw is a pure (Seed, round, receiver) hash and the grid
// index is per-round scratch — so a checkpoint records only its
// configuration, and a restore refuses a rebuilt medium whose fingerprint
// differs rather than copy anything into it. The radii, gray-zone
// probability and seed are written as they are; the adversary as a digest
// (0 when nil, the wire.Digest of its own fingerprint when it is a
// sim.Fingerprinter, of its type name otherwise); the detector as its type
// name (all cd detectors are stateless empty structs).
func (m *Medium) AppendFingerprint(dst []byte) []byte {
	dst = wire.AppendFloat64(dst, m.cfg.Radii.R1)
	dst = wire.AppendFloat64(dst, m.cfg.Radii.R2)
	dst = wire.AppendFloat64(dst, m.cfg.GrayZoneDeliveryProb)
	dst = wire.AppendVarint(dst, m.cfg.Seed)
	dst = wire.AppendUint64(dst, adversaryDigest(m.cfg.Adversary))
	return wire.AppendString(dst, fmt.Sprintf("%T", m.cfg.Detector))
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

// AppendFingerprint appends the members' fingerprints to dst in order, each
// length-prefixed; a member without one contributes its type name, as a
// lone adversary does in Medium.AppendFingerprint.
func (c Compose) AppendFingerprint(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(c)))
	for _, a := range c {
		if fp, ok := a.(sim.Fingerprinter); ok {
			dst = wire.AppendBytes(dst, fp.AppendFingerprint(nil))
		} else {
			dst = wire.AppendString(dst, fmt.Sprintf("%T", a))
		}
	}
	return dst
}
