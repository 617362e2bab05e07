package cm

import (
	"testing"

	"vinfra/internal/sim"
	"vinfra/internal/wire"
)

// TestFixedSnapshotRoundTrip pins the leader blob: restoring a Fixed
// manager's blob rewinds the shared leader variable, and because the
// variable is shared, every manager from the same factory sees it.
func TestFixedSnapshotRoundTrip(t *testing.T) {
	factory, setLeader := NewFixed(1)
	m0 := factory(newEnv(0, 1)).(*Fixed)
	m1 := factory(newEnv(1, 2)).(*Fixed)

	setLeader(3)
	blob := m0.AppendState(nil)
	setLeader(7)
	if err := m1.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if *m0.leader != 3 || *m1.leader != 3 {
		t.Fatalf("leader after restore = %d/%d, want 3/3", *m0.leader, *m1.leader)
	}
}

// TestBackoffSnapshotRoundTrip pins the election blob: the contention
// window and the deferral horizon travel; configuration does not.
func TestBackoffSnapshotRoundTrip(t *testing.T) {
	factory := NewBackoff(BackoffConfig{WMax: 64, DeferRounds: 10})
	m := factory(newEnv(0, 5)).(*Backoff)
	m.Observe(1, FeedbackCollision)
	m.Observe(2, FeedbackCollision)
	m.Observe(3, FeedbackLost)

	blob := m.AppendState(nil)
	fresh := factory(newEnv(0, 5)).(*Backoff)
	if err := fresh.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if fresh.w != m.w || fresh.deferUntil != m.deferUntil {
		t.Fatalf("restored (w=%d, deferUntil=%d), want (w=%d, deferUntil=%d)",
			fresh.w, fresh.deferUntil, m.w, m.deferUntil)
	}

	if err := fresh.RestoreState([]byte{0x01}); err == nil {
		t.Fatal("truncated blob accepted")
	}
}

// TestRegionalSnapshotDelegates pins that Regional's blob is exactly its
// embedded Backoff's (eligibility is derived from position, not state).
func TestRegionalSnapshotDelegates(t *testing.T) {
	factory := NewRegional(RegionalConfig{Radius: 5, Horizon: 2})
	m := factory(newEnv(0, 9)).(*Regional)
	m.Observe(1, FeedbackCollision)

	blob := m.AppendState(nil)
	fresh := factory(newEnv(0, 9)).(*Regional)
	if err := fresh.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if fresh.b.w != m.b.w {
		t.Fatalf("restored w=%d, want %d", fresh.b.w, m.b.w)
	}
	var _ sim.Snapshotter = m // Regional participates in the blob contract
}

// TestRefusedBlobChangesNothing pins that a blob RestoreState refuses
// writes nothing: for Fixed that is the leader every manager of the
// factory shares, so a bad blob must not move a region's leader; for
// Backoff, the window and the deferral horizon.
func TestRefusedBlobChangesNothing(t *testing.T) {
	trailing := append(wire.AppendVarint(nil, 7), 0)
	truncated := []byte{0x80} // a varint cut short: reads as 0

	factory, setLeader := NewFixed(1)
	m0 := factory(newEnv(0, 1)).(*Fixed)
	m1 := factory(newEnv(1, 2)).(*Fixed)
	setLeader(3)
	for _, blob := range [][]byte{trailing, truncated} {
		if err := m1.RestoreState(blob); err == nil {
			t.Fatalf("Fixed accepted % x", blob)
		}
		if *m0.leader != 3 || *m1.leader != 3 {
			t.Fatalf("refused blob % x moved the leader to %d/%d, want 3", blob, *m0.leader, *m1.leader)
		}
	}

	b := NewBackoff(BackoffConfig{WMax: 64, DeferRounds: 10})(newEnv(0, 5)).(*Backoff)
	b.Observe(1, FeedbackCollision)
	b.Observe(2, FeedbackLost)
	w, deferUntil := b.w, b.deferUntil
	for _, blob := range [][]byte{
		append(wire.AppendUvarint(wire.AppendUvarint(nil, 9), 99), 0), // trailing byte
		wire.AppendUvarint(nil, 9),                                    // horizon missing
	} {
		if err := b.RestoreState(blob); err == nil {
			t.Fatalf("Backoff accepted % x", blob)
		}
		if b.w != w || b.deferUntil != deferUntil {
			t.Fatalf("refused blob % x moved (w=%d, deferUntil=%d), want (%d, %d)", blob, b.w, b.deferUntil, w, deferUntil)
		}
	}
}
