package radio

import (
	"testing"

	"vinfra/internal/cd"
	"vinfra/internal/sim"
)

// TestDeliverSteadyStateAllocs gates the delivery loop's allocation budget
// at 10k nodes: after warm-up a round allocates nothing, on either path.
// Before the scratch-reuse work this was ~60k allocs (4 MB) per round; after
// it, one Msgs slice per receiver that heard something (2 852 at this
// scenario's 2 598 transmissions), until a round's Msgs became windows onto
// one arena the medium refills.
func TestDeliverSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	infos, txs, radii := benchScenario(10_000)
	// The AC rounds are counted; gray-zone delivery makes the last one
	// concluded receiver by receiver.
	for _, c := range []struct {
		name string
		mode path
		gray float64
	}{{"scan", pathScan, 0}, {"grid", pathGrid, 0}, {"grid-concluded", pathGrid, 0.5}} {
		mode := c.mode
		t.Run(c.name, func(t *testing.T) {
			if mode == pathScan && testing.Short() {
				t.Skip("scan at 10k nodes is slow")
			}
			m := Forced(Config{Radii: radii, Detector: cd.AC{}, GrayZoneDeliveryProb: c.gray, Seed: 1}, mode)
			for r := sim.Round(0); r < 3; r++ { // warm the reusable state
				m.Deliver(r, txs, infos)
			}
			avg := testing.AllocsPerRun(3, func() { m.Deliver(3, txs, infos) })
			t.Logf("allocs/round at 10k nodes (%d txs): %.0f", len(txs), avg)
			if avg > 0 {
				t.Errorf("steady-state Deliver allocates %.0f times per round at 10k nodes (%d txs), want 0", avg, len(txs))
			}
		})
	}
}
