package cm

import (
	"testing"

	"vinfra/internal/geo"
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
// window and the ballots still to sit out travel; nothing else does.
func TestBackoffSnapshotRoundTrip(t *testing.T) {
	factory := NewBackoff()
	m := factory(newEnv(0, 5)).(*Backoff)
	m.Observe(FeedbackCollision)
	m.Observe(FeedbackCollision)
	m.Observe(FeedbackLost)

	blob := m.AppendState(nil)
	fresh := factory(newEnv(0, 5)).(*Backoff)
	if err := fresh.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if fresh.w != 4 || fresh.deferred != 1 {
		t.Fatalf("restored (w=%d, deferred=%d), want (w=4, deferred=1)", fresh.w, fresh.deferred)
	}

	if err := fresh.RestoreState([]byte{0x01}); err == nil {
		t.Fatal("truncated blob accepted")
	}
}

// TestRegionalSnapshotDelegates pins that Regional's blob is exactly its
// embedded Backoff's (eligibility is derived from position, not state).
func TestRegionalSnapshotDelegates(t *testing.T) {
	factory := NewRegional(geo.Point{}, 5)
	m := factory(newEnv(0, 9)).(*Regional)
	m.Observe(FeedbackCollision)

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
// Backoff, the window and the deferral — and Backoff refuses a window
// outside [1, 32] or a deferral longer than one ballot, among them the
// blob of a manager checkpointed when the deferral was a radio round.
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

	backoff := func(w, deferred uint64) []byte {
		return wire.AppendUvarint(wire.AppendUvarint(nil, w), deferred)
	}
	b := NewBackoff()(newEnv(0, 5)).(*Backoff)
	b.Observe(FeedbackCollision)
	b.Observe(FeedbackLost)
	w, deferred := b.w, b.deferred
	for _, blob := range [][]byte{
		append(backoff(9, 1), 0),   // trailing byte
		wire.AppendUvarint(nil, 9), // deferral missing
		backoff(1, 5000),           // the deferral as a radio round
		backoff(1, 2),              // longer than one ballot
		backoff(0, 0),              // no window
		backoff(33, 0),             // above the cap
	} {
		if err := b.RestoreState(blob); err == nil {
			t.Fatalf("Backoff accepted % x", blob)
		}
		if b.w != w || b.deferred != deferred {
			t.Fatalf("refused blob % x moved (w=%d, deferred=%d), want (%d, %d)", blob, b.w, b.deferred, w, deferred)
		}
	}
}
