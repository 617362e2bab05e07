package vi_test

import (
	"fmt"
	"strings"
	"testing"

	"vinfra/internal/cha"
	"vinfra/internal/geo"
	"vinfra/internal/radio"
	"vinfra/internal/vi"
	"vinfra/internal/wire"
)

// TestLongRunStateIsAWindow is "a window, not a log" as a test: after 5 000
// fault-free virtual rounds on the 3x3 bed the monitor holds one run per
// virtual node — one entry, however long the node has been green — and every
// replica's agreement core retains the last green instance's ballot and
// nothing else (cha's TestCoreWindowStaysShort pins the slots behind that
// count). A 100k-virtual-round soak has these to stand on.
func TestLongRunStateIsAWindow(t *testing.T) {
	const vrounds = 5000
	tb := newTestbed(t, testbedOpts{
		locs:        geo.Grid{Spacing: 6, Cols: 3, Rows: 3}.Locations(),
		replicasPer: 3,
		leaders:     true,
		program:     tallyProgram,
	})
	mon := vi.NewMonitor()
	for _, em := range tb.emulators {
		em.SetHooks(vi.EmulatorHooks{OnOutput: mon.Observe})
	}
	tb.runVRounds(vrounds)
	for v := vi.VNodeID(0); int(v) < tb.dep.NumVNodes(); v++ {
		if rep := mon.Report(v); rep.Green != vrounds || rep.Instances != vrounds {
			t.Fatalf("vnode %d: %d green of %d instances, want a fault-free %d", v, rep.Green, rep.Instances, vrounds)
		}
		if n := vi.MonitorRuns(mon, v); n != 1 {
			t.Errorf("vnode %d: monitor holds %d runs after %d green virtual rounds, want 1", v, n, vrounds)
		}
	}
	for i, em := range tb.emulators {
		core := em.Core()
		if core.Instance() != cha.Instance(vrounds) || core.Floor() != cha.Instance(vrounds-1) {
			t.Fatalf("replica %d: instance %d floor %d", i, core.Instance(), core.Floor())
		}
		if n := core.Retained(); n != 1 {
			t.Errorf("replica %d: core retains %d entries after %d virtual rounds, want 1", i, n, vrounds)
		}
	}
}

// tallyProgram is a virtual node whose state stays one varint however long
// it runs: it counts the messages it was delivered and says so when scheduled.
func tallyProgram(sched vi.Schedule) func(vi.VNodeID) vi.Program {
	return func(v vi.VNodeID) vi.Program {
		return vi.Codec[int]{
			InitState: func(vi.VNodeID, geo.Point) int { return 0 },
			Step:      func(n, _ int, in vi.RoundInput) int { return n + len(in.Msgs) },
			Out: func(n, vround int) *vi.Message {
				if !sched.ScheduledIn(v, vround-1) {
					return nil
				}
				return vi.Text(fmt.Sprintf("count=%d", n))
			},
			EncodeState: func(dst []byte, n int) []byte { return wire.AppendUvarint(dst, uint64(n)) },
			DecodeState: func(d *wire.Decoder) (int, error) { return int(d.Uvarint()), d.Err() },
		}
	}
}

// TestHistoryViewNeverPublished pins the view's lifetime contract from the
// emulator's side: StateBefore and the vn phase read the core's scratch
// history, outputs carry histories of their own. No history handed to
// OnOutput is the view, and none changes afterwards — each still digests to
// what it did when it was published, however many views were taken since —
// under a lossy channel, so non-green outputs (which recompute into the
// scratch) and multi-position histories are in the mix.
func TestHistoryViewNeverPublished(t *testing.T) {
	tb := newTestbed(t, testbedOpts{
		locs:        []geo.Point{{X: 0, Y: 0}, {X: 6, Y: 0}},
		replicasPer: 3,
		seed:        5,
		adversary:   radio.NewRandomLoss(0.15, 0.1, 1<<30, 5),
	})
	type published struct {
		h      *cha.History
		digest uint64
		text   string
	}
	var outs []published
	decided, undecided := 0, 0
	for _, em := range tb.emulators {
		em.SetHooks(vi.EmulatorHooks{OnOutput: func(_ vi.VNodeID, out cha.Output) {
			if !out.Decided() {
				undecided++
				return
			}
			decided++
			outs = append(outs, published{out.History, out.History.Digest(), out.History.String()})
		}})
	}
	for vr := 1; vr <= 60; vr++ {
		tb.runVRounds(1)
		for _, em := range tb.emulators {
			if em.Joined() {
				em.StateBefore(vr + 1) // churn the view between rounds too
			}
		}
	}
	if decided == 0 || undecided == 0 {
		t.Fatalf("%d decided and %d undecided outputs: the run must have both", decided, undecided)
	}
	views := make(map[*cha.History]bool)
	for _, em := range tb.emulators {
		if em.Joined() {
			views[em.Core().HistoryView()] = true
		}
	}
	for _, p := range outs {
		if views[p.h] {
			t.Fatalf("history %s handed to OnOutput is a core's view", p.text)
		}
		if p.h.Digest() != p.digest || p.h.String() != p.text {
			t.Fatalf("published history changed after the fact: was %s, now %s", p.text, p.h)
		}
	}
}

// TestEmulatorRestoreRefusesBadCore: the emulator hands a snapshot's core to
// cha.RestoreCore and passes its refusal on — an error the engine's restore
// returns and the daemon quarantines on, where the map core would have
// swallowed the snapshot and the window core indexed out of range.
func TestEmulatorRestoreRefusesBadCore(t *testing.T) {
	tb := newTestbed(t, testbedOpts{
		locs:        []geo.Point{{X: 0, Y: 0}},
		replicasPer: 2,
		leaders:     true,
	})
	tb.runVRounds(4)
	em := tb.emulators[1]
	good := em.Snapshot()
	if err := em.Restore(good); err != nil {
		t.Fatalf("an emulator's own snapshot must restore: %v", err)
	}
	bad := em.Snapshot()
	bad.Core.K = 1 << 40
	if err := em.Restore(bad); err == nil || !strings.Contains(err.Error(), "cha: restore") {
		t.Fatalf("Restore with K = 2^40: err %v, want the core's refusal", err)
	}
	if err := em.Restore(good); err != nil {
		t.Fatalf("the emulator must take a good snapshot after refusing a bad one: %v", err)
	}
	tb.runVRounds(2)
	if got, want := string(em.StateBefore(7)), string(tb.emulators[0].StateBefore(7)); got != want {
		t.Errorf("restored replica diverged: %q vs %q", got, want)
	}
}
