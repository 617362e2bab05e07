package cm

import (
	"testing"

	"vinfra/internal/geo"
	"vinfra/internal/sim"
	"vinfra/internal/wire"
)

// TestFixedSnapshotRoundTrip pins the leader blob: restoring a Fixed
// manager's blob rewinds the shared leader variable, and because the
// variable is shared, every manager reading it sees it.
func TestFixedSnapshotRoundTrip(t *testing.T) {
	leader := sim.NodeID(1)
	m0 := new(Fixed).Init(&leader, newEnv(0, 1))
	m1 := new(Fixed).Init(&leader, newEnv(1, 2))

	leader = 3
	blob := m0.AppendState(nil)
	leader = 7
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
	m := new(Backoff).Init(newEnv(0, 5))
	m.Observe(FeedbackCollision)
	m.Observe(FeedbackCollision)
	m.Observe(FeedbackLost)

	blob := m.AppendState(nil)
	fresh := new(Backoff).Init(newEnv(0, 5))
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
	m := new(Regional).Init(geo.Point{}, 5, newEnv(0, 9), false)
	m.Observe(FeedbackCollision)

	blob := m.AppendState(nil)
	fresh := new(Regional).Init(geo.Point{}, 5, newEnv(0, 9), false)
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
// election shares, so a bad blob must not move a region's leader; for
// Backoff, the window and the deferral — and Backoff refuses a window
// outside [1, 32] or a deferral longer than one ballot, among them the
// blob of a manager checkpointed when the deferral was a radio round.
func TestRefusedBlobChangesNothing(t *testing.T) {
	trailing := append(wire.AppendVarint(nil, 7), 0)
	truncated := []byte{0x80} // a varint cut short: reads as 0

	leader := sim.NodeID(1)
	m0 := new(Fixed).Init(&leader, newEnv(0, 1))
	m1 := new(Fixed).Init(&leader, newEnv(1, 2))
	leader = 3
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
	b := new(Backoff).Init(newEnv(0, 5))
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
