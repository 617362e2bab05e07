package experiments

import (
	"fmt"

	"vinfra/internal/cha"
	"vinfra/internal/harness"
	"vinfra/internal/spec"
)

var e7aDesc = harness.Descriptor{
	ID:      "E7a",
	Group:   "E7",
	Title:   "E7 — virtual round cost: CHAP emulation vs majority-RSM emulation",
	Notes:   "CHAP constant (s+12); RSM grows as n+4 — crossover where n+4 exceeds s+12, and RSM additionally requires known membership and unique IDs",
	Columns: []string{"replicas", "CHAP rounds/vround", "RSM rounds/vround", "RSM/CHAP"},
	Grid: func(quick bool) []harness.Params {
		var grid []harness.Params
		for _, n := range sweep(quick, []int{3, 7, 11, 15, 31}, []int{3, 15}) {
			grid = append(grid, harness.Params{
				Label: fmt.Sprintf("replicas=%d", n),
				Ints:  map[string]int{"replicas": n, "vrounds": suiteVRounds(quick) / 2},
			})
		}
		return grid
	},
	Run: baselineVICell,
}

var e7bDesc = harness.Descriptor{
	ID:      "E7b",
	Group:   "E7",
	Title:   "E7b — join state-transfer size vs instances since last checkpoint",
	Notes:   "grows with un-checkpointed suffix; green instances bound it (Section 3.5)",
	Columns: []string{"instances since green", "join-ack bytes"},
	Grid: func(quick bool) []harness.Params {
		var grid []harness.Params
		for _, gap := range []int{0, 4, 16, 64} {
			grid = append(grid, harness.Params{
				Label: fmt.Sprintf("gap=%d", gap),
				Ints:  map[string]int{"gap": gap},
			})
		}
		return grid
	},
	Run: stateTransferCell,
}

func init() {
	harness.Register(e7aDesc)
	harness.Register(e7bDesc)
}

// baselineVICell compares the cost of one virtual round under the paper's
// CHAP-based emulation against a hypothetical emulation built on the
// majority-RSM baseline, for one replica population. CHAP's cost is the
// constant s+12 regardless of replicas; an RSM-based emulation needs the
// two message-sub-protocol phases plus one Θ(n) majority decision per
// virtual round (Section 1.5's "unacceptable channel contention and long
// delays").
func baselineVICell(c *harness.Cell) []harness.Row {
	n, vrounds := c.Params.Int("replicas"), c.Params.Int("vrounds")
	w := buildWorld(spec.Spec{
		Seed: c.Seed, VRounds: vrounds, Grid: spec.Grid{Cols: 1, Rows: 1},
		Devices: spec.Devices{Replicas: n},
	})
	stepVRounds(w, vrounds)
	st := w.Eng.Stats()
	chap := float64(st.Rounds) / float64(vrounds)

	// RSM-based virtual round: client + vn phases, then one majority
	// decision over the same radio channel.
	rsmRounds, _ := rsmRun(n, vrounds, nil, int64(n)+c.Base())
	rsm := 2 + rsmRounds
	return []harness.Row{{
		harness.Int(n), harness.Float(chap), harness.Float(rsm), harness.Float(rsm / chap),
	}}
}

// stateTransferCell measures the join-ack message size as a function of
// the time since the last green (checkpoint) instance — the state-transfer
// cost the paper's open question (3) wants reduced. With regular green
// rounds the replica checkpoint keeps join-acks small.
func stateTransferCell(c *harness.Cell) []harness.Row {
	gap := c.Params.Int("gap")
	core := cha.NewCore()
	// One green instance, then `gap` yellow (undecided) instances that
	// cannot be garbage collected.
	b := core.Begin(1, cha.V("0123456789"))
	core.ObserveBallots([]cha.Ballot{b}, false)
	core.ObserveVeto1(false, false)
	out := core.ObserveVeto2(false, false)
	core.GC(out.Instance)
	for k := cha.Instance(2); k <= cha.Instance(1+gap); k++ {
		bb := core.Begin(k, cha.V("0123456789"))
		core.ObserveBallots([]cha.Ballot{bb}, false)
		core.ObserveVeto1(false, false)
		core.ObserveVeto2(false, true) // yellow: good but undecided
	}
	snap := core.Snapshot()
	ackSize := 8 + 16 + snap.WireSize() // StateFloor + small state + snapshot
	return []harness.Row{{harness.Int(gap), harness.Int(ackSize)}}
}
