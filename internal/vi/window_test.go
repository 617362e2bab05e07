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
		em.SetHooks(&vi.EmulatorHooks{OnOutput: mon.Observe})
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
func tallyProgram(v vi.VNodeID, sched vi.Schedule) vi.Program {
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

// TestOutputHistoryIsTheView pins the retain rule of Output.History from
// the emulator's side, under a lossy channel, so non-green outputs and
// multi-position histories are in the mix. A history handed to OnOutput is
// its replica's core's view: in the hook it equals what CalculateHistory
// reads on every position the core still holds (fold has collected the rest
// by then), and a consumer that keeps it must copy it — the pointers kept
// across rounds are the views, and read later rounds' histories, while the
// copies read what was published.
func TestOutputHistoryIsTheView(t *testing.T) {
	tb := newTestbed(t, testbedOpts{
		locs:        []geo.Point{{X: 0, Y: 0}, {X: 6, Y: 0}},
		replicasPer: 3,
		seed:        5,
		adversary:   radio.NewRandomLoss(0.15, 0.1, 1<<30, 5),
	})
	type kept struct {
		h, copied *cha.History
		text      string
	}
	var outs []kept
	decided, undecided := 0, 0
	for _, em := range tb.emulators {
		em.SetHooks(&vi.EmulatorHooks{OnOutput: func(_ vi.VNodeID, out cha.Output) {
			if !out.Decided() {
				undecided++
				return
			}
			decided++
			h := out.History
			fresh := em.Core().CalculateHistory()
			if fresh.Top() != h.Top() {
				t.Fatalf("published history tops at %d, CalculateHistory at %d", h.Top(), fresh.Top())
			}
			for k := em.Core().Snapshot().Floor + 1; k <= h.Top(); k++ {
				v, ok := h.At(k)
				fv, fok := fresh.At(k)
				if ok != fok || !v.Equal(fv) {
					t.Fatalf("published %s and CalculateHistory %s differ at %d", h, fresh, k)
				}
			}
			outs = append(outs, kept{h, copyHistory(h), h.String()})
			if em.Core().HistoryView() != h {
				t.Fatalf("history %s handed to OnOutput is not the core's view", outs[len(outs)-1].text)
			}
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
	changed := 0
	for _, p := range outs {
		if !views[p.h] {
			t.Fatalf("kept history %s is not a core's view", p.text)
		}
		if p.h.String() != p.text {
			changed++
		}
		if p.copied.String() != p.text {
			t.Fatalf("a copy made at publication changed: was %s, now %s", p.text, p.copied)
		}
	}
	if changed == 0 {
		t.Fatalf("none of %d kept views changed after publication: the run shows nothing", len(outs))
	}
}

// copyHistory is what a consumer that keeps an output's history does: copy
// it out of the view while the hook runs.
func copyHistory(h *cha.History) *cha.History {
	vals := make(map[cha.Instance]cha.Value)
	for _, k := range h.Included() {
		vals[k], _ = h.At(k)
	}
	return cha.NewHistory(h.Top(), vals)
}
