package vi_test

import (
	"fmt"
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
		if rep := mon.ReportThrough(v, vrounds); rep.Green != vrounds || rep.Instances != vrounds {
			t.Fatalf("vnode %d: %d green of %d instances, want a fault-free %d", v, rep.Green, rep.Instances, vrounds)
		}
		if n := vi.MonitorRuns(mon, v); n != 1 {
			t.Errorf("vnode %d: monitor holds %d runs after %d green virtual rounds, want 1", v, n, vrounds)
		}
	}
	for i, em := range tb.emulators {
		core := em.Core()
		if s := core.Snapshot(); s.K != cha.Instance(vrounds) || s.Floor != cha.Instance(vrounds-1) {
			t.Fatalf("replica %d: instance %d floor %d", i, s.K, s.Floor)
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
			outs = append(outs, published{out.History, out.History.DigestRange(1, out.History.Top(), 0), out.History.String()})
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
		if p.h.DigestRange(1, p.h.Top(), 0) != p.digest || p.h.String() != p.text {
			t.Fatalf("published history changed after the fact: was %s, now %s", p.text, p.h)
		}
	}
}
