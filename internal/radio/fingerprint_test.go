package radio

import (
	"bytes"
	"encoding/hex"
	"testing"

	"vinfra/internal/cd"
	"vinfra/internal/geo"
)

// fingerprintBase is the configuration the medium fingerprint tests build.
var fingerprintBase = Config{Radii: geo.Radii{R1: 10, R2: 20}, Detector: cd.AC{}, GrayZoneDeliveryProb: 0.25, Seed: 7}

// TestMediumSnapshotRoundTrip pins the medium's checkpoint section, its
// fingerprint — every checkpoint digest folds it in — and requires a
// medium rebuilt from the same configuration to write the same bytes, so a
// restore onto it accepts the checkpoint.
func TestMediumSnapshotRoundTrip(t *testing.T) {
	fp := MustMedium(fingerprintBase).AppendFingerprint(nil)
	if got, want := hex.EncodeToString(fp), "00000000000024400000000000003440000000000000d03f0e00000000000000000563642e4143"; got != want {
		t.Errorf("fingerprint = %s, want %s", got, want)
	}
	if again := MustMedium(fingerprintBase).AppendFingerprint(nil); !bytes.Equal(again, fp) {
		t.Error("two media built from one configuration fingerprint differently")
	}
}

// TestMediumRestoreRejectsMismatch pins the fingerprint's validation role:
// a rebuilt medium with any configuration drift fingerprints differently,
// so a restore refuses the checkpoint instead of silently diverging.
func TestMediumRestoreRejectsMismatch(t *testing.T) {
	fp := MustMedium(fingerprintBase).AppendFingerprint(nil)
	drifts := map[string]func(*Config){
		"seed":                  func(c *Config) { c.Seed = 8 },
		"gray-zone probability": func(c *Config) { c.GrayZoneDeliveryProb = 0.5 },
		"interference radius":   func(c *Config) { c.Radii.R2 = 21 },
		"detector":              func(c *Config) { c.Detector = cd.Complete{} },
		"adversary":             func(c *Config) { c.Adversary = NewPartition(5, 1) },
	}
	for name, drift := range drifts {
		c := fingerprintBase
		drift(&c)
		if bytes.Equal(MustMedium(c).AppendFingerprint(nil), fp) {
			t.Errorf("a medium with a different %s fingerprints the same", name)
		}
	}
}
