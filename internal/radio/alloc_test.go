package radio

import (
	"testing"

	"vinfra/internal/cd"
	"vinfra/internal/sim"
)

// TestDeliverSteadyStateAllocs gates the delivery loop's allocation budget
// at 10k nodes: after warm-up, the only per-round allocations left are the
// message slices of receivers that actually hear something (~one per
// transmitting sender, which always hears itself). Before the scratch-reuse
// work this was ~60k allocs (4 MB) per round; the budget of 1.5 x txs + 64
// keeps the win from silently regressing while leaving room for grid-cell
// drift as positions change.
func TestDeliverSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	infos, txs, radii := benchScenario(10_000)
	for _, mode := range []path{pathScan, pathGrid} {
		name := "grid"
		if mode == pathScan {
			name = "scan"
		}
		t.Run(name, func(t *testing.T) {
			if mode == pathScan && testing.Short() {
				t.Skip("scan at 10k nodes is slow")
			}
			m := Forced(Config{Radii: radii, Detector: cd.AC{}, Seed: 1}, mode)
			for r := sim.Round(0); r < 3; r++ { // warm the reusable state
				m.Deliver(r, txs, infos)
			}
			budget := 1.5*float64(len(txs)) + 64
			avg := testing.AllocsPerRun(3, func() { m.Deliver(3, txs, infos) })
			if avg > budget {
				t.Errorf("steady-state Deliver allocates %.0f times per round at 10k nodes (%d txs), want <= %.0f", avg, len(txs), budget)
			}
		})
	}
}
