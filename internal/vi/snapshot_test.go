package vi

import (
	"bytes"
	"reflect"
	"testing"

	"vinfra/internal/cha"
	"vinfra/internal/wire"
)

// TestMonitorSnapshotRoundTrip drives a live monitor, snapshots it,
// restores into a fresh one, and pins both the canonical bytes and the
// derived reports.
func TestMonitorSnapshotRoundTrip(t *testing.T) {
	m := NewMonitor()
	m.Observe(0, cha.Output{Instance: 1, Color: cha.Green})
	m.Observe(0, cha.Output{Instance: 2, Color: cha.Red})
	m.Observe(1, cha.Output{Instance: 1, Color: cha.Green})
	m.Observe(1, cha.Output{Instance: 3, Color: cha.Green})

	s := m.Snapshot()
	b := s.AppendTo(nil)
	if len(b) != s.WireSize() {
		t.Fatalf("WireSize = %d, encoded %d bytes", s.WireSize(), len(b))
	}
	got, err := DecodeMonitorSnapshot(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.AppendTo(nil), b) {
		t.Fatal("re-encoding the decoded snapshot changes bytes")
	}

	fresh := NewMonitor()
	fresh.Restore(got)
	if !bytes.Equal(fresh.Snapshot().AppendTo(nil), b) {
		t.Fatal("snapshot of the restored monitor differs from the original")
	}
	for v := VNodeID(0); v < 2; v++ {
		if a, b := m.ReportThrough(v, 3), fresh.ReportThrough(v, 3); !reflect.DeepEqual(a, b) {
			t.Fatalf("vnode %d: restored report %+v, original %+v", v, b, a)
		}
	}
}

// hostileCores are core snapshots that decode but must not become a window:
// their keys would be indexes far outside it, or out of order, or below it.
func hostileCores() []cha.CoreSnapshot {
	ballots := func(n int) []cha.Ballot { return make([]cha.Ballot, n) }
	return []cha.CoreSnapshot{
		{Floor: 1, K: 1 << 40, Prev: 1},                                                      // huge K
		{K: 1 << 40, BallotKeys: []cha.Instance{1, 1 << 40}, Ballots: ballots(2)},            // huge ballot key
		{K: 1 << 40, StatusKeys: []cha.Instance{1 << 40}, Statuses: []cha.Color{cha.Red}},    // huge status key
		{K: 5, BallotKeys: []cha.Instance{4, 2}, Ballots: ballots(2)},                        // unsorted
		{K: 5, StatusKeys: []cha.Instance{3, 3}, Statuses: []cha.Color{cha.Red, cha.Orange}}, // duplicate key
		{Floor: 7, K: 9, Prev: 8, BallotKeys: []cha.Instance{3, 8}, Ballots: ballots(2)},     // key below the floor
		{Floor: 7, K: 9, StatusKeys: []cha.Instance{7}, Statuses: []cha.Color{cha.Yellow}},   // key at the floor
		{K: 3, Prev: 9}, // prev above K
		{K: 3, BallotKeys: []cha.Instance{2}, Ballots: []cha.Ballot{{V: cha.V("v"), Prev: 2}}},   // ballot pointing at itself
		{K: 3, Prev: 2, StatusKeys: []cha.Instance{2}, Statuses: []cha.Color{cha.Green}},         // explicit green
		{Floor: cha.Instance(-1 << 63), K: cha.Instance(-1 << 63), Prev: cha.Instance(-1 << 63)}, // 2^63 on the wire
	}
}

// checkCoreRestores is the restore half of the two fuzz contracts: a core
// snapshot that decoded is either refused or becomes a core that snapshots
// back to the same bytes and can be stepped — never a panic, never an
// allocation its encoding does not pay for.
func checkCoreRestores(t *testing.T, s cha.CoreSnapshot) {
	t.Helper()
	core, err := cha.RestoreCore(s)
	if err != nil {
		return
	}
	if got, want := core.Snapshot().AppendTo(nil), s.AppendTo(nil); !bytes.Equal(got, want) {
		t.Fatalf("restored core snapshots to % x, input % x", got, want)
	}
	core.HistoryView()
	if s.K >= 1<<62 {
		return // no next instance to begin
	}
	core.Begin(s.K+1, cha.V("next"))
	core.ObserveBallots(nil, false)
	core.ObserveVeto1(true, false)
	core.ObserveVeto2(true, false)
	core.GC(core.Snapshot().Prev)
}

// TestHostileCoresAreRefused runs the fuzz seeds' point as a plain test:
// every hostile core decodes — the wire format has no opinion — and
// RestoreCore refuses each.
func TestHostileCoresAreRefused(t *testing.T) {
	for i, c := range hostileCores() {
		d := wire.Dec(c.AppendTo(nil))
		dec, err := cha.DecodeCoreSnapshot(&d)
		if err != nil || d.Finish() != nil {
			t.Fatalf("hostile core %d does not decode: %v", i, err)
		}
		if core, err := cha.RestoreCore(dec); err == nil {
			t.Errorf("hostile core %d restored: %+v", i, core.Snapshot())
		}
	}
}

// FuzzDecodeMonitorSnapshot is the same contract for the monitor layer, and
// what decodes restores: instances fold back into runs in whatever order and
// with whatever repeats the bytes list them.
func FuzzDecodeMonitorSnapshot(f *testing.F) {
	f.Add([]byte{})
	m := NewMonitor()
	m.Observe(0, cha.Output{Instance: 1, Color: cha.Green})
	m.Observe(3, cha.Output{Instance: 2, Color: cha.Green})
	f.Add(m.Snapshot().AppendTo(nil))
	f.Add([]byte{0x01, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeMonitorSnapshot(data)
		if err != nil {
			return
		}
		out := s.AppendTo(nil)
		if len(out) != s.WireSize() {
			t.Fatalf("WireSize %d != encoded length %d", s.WireSize(), len(out))
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("accepted snapshot re-encodes to % x, input % x", out, data)
		}
		m := NewMonitor()
		m.Restore(s)
		wellFormed(t, m)
		for i, v := range s.VNodes {
			m.ReportThrough(v, int(s.Tops[i])) // the gaps between runs, not a bitmap of the horizon
		}
	})
}
