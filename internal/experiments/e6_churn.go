package experiments

import (
	"fmt"

	"vinfra/internal/geo"
	"vinfra/internal/harness"
	"vinfra/internal/metrics"
	"vinfra/internal/sim"
	"vinfra/internal/spec"
	"vinfra/internal/vi"
)

var e6Desc = harness.Descriptor{
	ID:      "E6",
	Group:   "E6",
	Title:   "E6 — churn: availability and join latency vs turnover period",
	Notes:   "backoff contention manager throughout; resets indicate the virtual node died (state loss)",
	Columns: []string{"churn period (vrounds)", "turnovers", "availability", "mean join latency (vrounds)", "resets"},
	Grid: func(quick bool) []harness.Params {
		var grid []harness.Params
		for _, period := range sweep(quick, []int{2, 4, 8}, []int{4}) {
			grid = append(grid, harness.Params{
				Label: fmt.Sprintf("period=%d", period),
				Ints:  map[string]int{"period": period, "vrounds": suiteVRounds(quick) * 2},
			})
		}
		return grid
	},
	Run: churnCell,
}

func init() { harness.Register(e6Desc) }

// churnCell measures virtual node availability and join latency for one
// turnover period: every period virtual rounds, the oldest replica leaves
// and a fresh device arrives and joins. The virtual node must remain
// available as long as some replica is always present (Section 4.2's
// progress condition).
func churnCell(c *harness.Cell) []harness.Row {
	period, vrounds := c.Params.Int("period"), c.Params.Int("vrounds")
	w := buildWorld(spec.Spec{
		Seed: int64(period) + c.Base(), VRounds: vrounds, Grid: spec.Grid{Cols: 1, Rows: 1},
		Devices: spec.Devices{Replicas: 3},
		Leader:  "regional",
	})
	attachPinger(w, geo.Point{X: 1.2, Y: -1})

	var joinLatency metrics.Series
	resets := 0
	turnovers := 0

	// Replica IDs: 0..2 are the bootstrap replicas; the pinger is 3.
	oldest := 0
	alive := []sim.NodeID{0, 1, 2}

	for vr := 0; vr < vrounds; vr++ {
		if period > 0 && vr > 0 && vr%period == 0 && oldest < len(alive) {
			// Oldest leaves; a new device arrives nearby.
			w.Eng.Leave(alive[oldest])
			oldest++
			arrivedAt := vr
			newID := sim.NodeID(w.Eng.NumNodes())
			w.AttachReplica(geo.Point{X: 0.2 * float64(vr%5), Y: -0.3}, false, vi.EmulatorHooks{
				OnJoin: func(_ vi.VNodeID, joinVR int) {
					joinLatency.AddInt(joinVR - arrivedAt)
				},
				OnReset: func(vi.VNodeID, int) { resets++ },
			})
			alive = append(alive, newID)
			turnovers++
		}
		w.StepVRound()
	}
	return []harness.Row{{
		harness.Int(period), harness.Int(turnovers),
		harness.Float(w.Mon.Report(0).Availability), harness.Float(joinLatency.Mean()), harness.Int(resets),
	}}
}
