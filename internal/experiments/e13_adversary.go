package experiments

import (
	"fmt"

	"vinfra/internal/harness"
)

// E13 is the robustness grid: the full emulation stack under the
// deterministic adversary plane of internal/faults. Each cell runs one
// adversary kind at one intensity against one virtual-node grid and
// reports availability, stall and recovery accounting from vi.Monitor —
// the paper's central claim ("the virtual node layer stays available
// despite a collision-prone, crash-prone environment") measured under an
// actively hostile environment instead of benign stochastic loss.
//
// Kinds:
//
//   - jam: a RegionJammer parks on the virtual-node locations on a duty
//     cycle; jammed receivers lose everything and see forced ± — the
//     collision detectors run at their specified limits.
//   - wipe: a RegionWipe kills every replica of one region at once (cycling
//     through regions); fresh devices attach the next virtual round and
//     must revive the dead virtual node through the join/reset protocol.
//   - storm: a ChurnStorm kills hash-picked replicas every virtual round
//     and respawns a fresh joiner per victim — sustained flapping churn
//     with leadership failover.
//   - burst: a CrashBurst attrits non-leader replicas in correlated
//     probabilistic batches with no respawn — graceful degradation down to
//     single-replica regions.
var e13Kinds = []string{"jam", "wipe", "storm", "burst"}

var e13Shapes = []struct {
	name       string
	cols, rows int
}{
	{"3x3", 3, 3},
	{"5x5", 5, 5},
}

var e13Desc = harness.Descriptor{
	ID:    "E13",
	Group: "E13",
	Title: "E13 — adversary: availability under deterministic attack",
	Notes: "internal/faults adversaries on the parallel grid stack; availability/stall/recovery from vi.Monitor accounted through the full horizon (silenced vnodes count unavailable); seed-deterministic, parallel == sequential",
	Columns: []string{
		"vnodes", "adversary", "intensity", "devices", "alive at end", "vrounds",
		"availability", "unavailable", "max stall", "mean recovery", "joins", "resets",
	},
	Grid: func(quick bool) []harness.Params {
		shapes := e13Shapes
		intensities := []string{"low", "high"}
		vrounds := 16
		if quick {
			shapes = e13Shapes[:1]
			intensities = intensities[1:]
			vrounds = 8
		}
		var grid []harness.Params
		for _, kind := range e13Kinds {
			for _, intensity := range intensities {
				for _, s := range shapes {
					grid = append(grid, harness.Params{
						Label: fmt.Sprintf("%s/%s/%s", kind, intensity, s.name),
						Ints:  map[string]int{"cols": s.cols, "rows": s.rows, "vrounds": vrounds},
						Strs:  map[string]string{"kind": kind, "intensity": intensity},
					})
				}
			}
		}
		return grid
	},
	Run: adversaryCell,
}

func init() { harness.Register(e13Desc) }

func adversaryCell(c *harness.Cell) []harness.Row {
	return adversaryRows(c, true, 0)
}

// adversaryRows runs one robustness cell by stepping its Soak to
// completion (the checkpointable driver in soak.go is the single
// implementation of the adversary load). The parallel flag and shard
// count exist for the determinism property tests: descriptor cells always
// run the parallel engine on a single medium, and the tests pin rows
// byte-identical across sequential, parallel and region-sharded
// (shards > 0) runs of the same cell.
func adversaryRows(c *harness.Cell, parallel bool, shards int) []harness.Row {
	s := newAdversarySoak(c, parallel, shards)
	for s.VRound() < s.VRounds() {
		s.StepVRound()
	}
	return s.Rows()
}
