package faults

import (
	"bytes"
	"encoding/hex"
	"testing"

	"vinfra/internal/cd"
	"vinfra/internal/geo"
	"vinfra/internal/radio"
	"vinfra/internal/sim"
)

// TestAdversaryFingerprintsPinned pins every adversary's fingerprint bytes.
// EngineSnapshot.FaultDigest and the medium's adversary digest fold them
// in, and so does every checkpoint digest pinned elsewhere: a change here
// refuses every checkpoint already written. Each value is reached through
// sim.Fingerprinter, the interface the engine and the medium look for.
func TestAdversaryFingerprintsPinned(t *testing.T) {
	cases := []struct {
		f    sim.Fingerprinter
		want string
	}{
		{Window{From: 3, Until: 99}, "0363"},
		{RegionWipe{Center: geo.Point{X: 1.5, Y: -2.25}, Radius: 4, At: 17},
			"000000000000f83f00000000000002c0000000000000104011"},
		{&CrashBurst{Window: Window{From: 2}, Period: 8, P: 0.25, Seed: 101},
			"020010000000000000d03fca01"},
		{&ChurnStorm{Window: Window{From: 1, Until: 50}, Period: 4, Kills: 2, Seed: 7},
			"013208040e"},
		{&Herd{Window: Window{From: 5}, Focus: geo.Point{X: 3, Y: 4}, Frac: 0.5, Step: 1.25, Seed: 11},
			"050000000000000008400000000000001040000000000000e03f000000000000f43f16"},
		{CellJammer{
			Window: Window{From: 1}, Bounds: geo.Rect{Min: geo.Point{X: -1, Y: -1}, Max: geo.Point{X: 9, Y: 9}},
			CellSize: 2.5, Cells: 3, Seed: 13,
		}, "0100000000000000f0bf000000000000f0bf000000000000224000000000000022400000000000000440061a"},
		{RegionJammer{
			Window: Window{From: 4}, Targets: []geo.Point{{X: 0, Y: 0}, {X: 6, Y: 0}},
			Radius: 2.5, Period: 12, Burst: 3, Rotate: 2, Seed: 17,
		}, "0400020000000000000000000000000000000000000000000018400000000000000000000000000000044018060422"},
	}
	for _, c := range cases {
		if got := hex.EncodeToString(c.f.AppendFingerprint(nil)); got != c.want {
			t.Errorf("%T fingerprint = %s, want %s", c.f, got, c.want)
		}
	}
}

// TestAdversaryEncodingsOmitClosures pins the design decision that the
// fingerprints cover configuration only: two storms differing solely in
// their closures fingerprint identically (the engine's fault digest
// therefore cannot distinguish them — the driver must rebuild matching
// closures, which is the restore protocol's contract).
func TestAdversaryEncodingsOmitClosures(t *testing.T) {
	plain := ChurnStorm{Period: 4, Kills: 1, Seed: 3}
	wired := plain
	wired.Eligible = func(sim.NodeID) bool { return true }
	wired.Respawn = func(sim.NodeID, geo.Point) {}
	if !bytes.Equal(plain.AppendFingerprint(nil), wired.AppendFingerprint(nil)) {
		t.Fatal("closures leak into the ChurnStorm fingerprint")
	}
}

// TestJammersFingerprintFoldsMembers: a medium whose adversary is a stack
// of jammers refuses the snapshot of a medium stacking different ones. The
// stack's fingerprint folds its members in order, so {A, B} differs from
// {A, C} and from {B, A}.
func TestJammersFingerprintFoldsMembers(t *testing.T) {
	a := &CellJammer{CellSize: 6, Cells: 2, Seed: 1}
	b := &RegionJammer{Targets: []geo.Point{{X: 0, Y: 0}}, Radius: 2.5, Seed: 2}
	c := &RegionJammer{Targets: []geo.Point{{X: 6, Y: 0}}, Radius: 2.5, Seed: 2}
	medium := func(adv radio.Adversary) *radio.Medium {
		return radio.MustMedium(radio.Config{
			Radii: geo.Radii{R1: 10, R2: 20}, Detector: cd.AC{}, Seed: 1, Adversary: adv,
		})
	}
	snap := medium(Jammers{a, b}).Snapshot()
	if err := medium(Jammers{a, b}).Restore(snap); err != nil {
		t.Fatalf("the same jammer stack refuses its own snapshot: %v", err)
	}
	for name, other := range map[string]Jammers{"{A, C}": {a, c}, "{B, A}": {b, a}, "{A}": {a}} {
		if err := medium(other).Restore(snap); err == nil {
			t.Errorf("a medium jammed by %s restored the snapshot of one jammed by {A, B}", name)
		}
	}
}
