package experiments

import (
	"fmt"
	"math"
	"time"

	"vinfra/internal/cd"
	"vinfra/internal/det"
	"vinfra/internal/geo"
	"vinfra/internal/harness"
	"vinfra/internal/metrics"
	"vinfra/internal/radio"
	"vinfra/internal/sim"
)

var e10Desc = harness.Descriptor{
	ID:      "E10",
	Group:   "E10",
	Title:   "E10 — round delivery scaling (per-round cost)",
	Notes:   "grid = uniform R2-cell index, receivers consult 3x3 cells; receptions identical across columns",
	Columns: []string{"nodes", "txs", "scan", "grid", "speedup"},
	Grid: func(quick bool) []harness.Params {
		rounds := 20
		if quick {
			rounds = 5
		}
		var grid []harness.Params
		for _, n := range sweep(quick, []int{100, 1000, 10000}, []int{100, 1000}) {
			grid = append(grid, harness.Params{
				Label: fmt.Sprintf("n=%d", n),
				Ints:  map[string]int{"n": n, "rounds": rounds},
			})
		}
		return grid
	},
	Run: deliveryScalingCell,
}

func init() { harness.Register(e10Desc) }

// scalingRound scatters n nodes uniformly at constant density (about
// twelve nodes per R2 disk, the regime a large emulation runs in) with a
// quarter of them transmitting.
func scalingRound(n int, seed int64) ([]sim.NodeInfo, []sim.Transmission) {
	side := math.Sqrt(float64(n) / 12 * math.Pi * Radii.R2 * Radii.R2)
	rng := det.NewStream(seed)
	infos := make([]sim.NodeInfo, n)
	var txs []sim.Transmission
	for i := range infos {
		infos[i] = sim.NodeInfo{
			ID:    sim.NodeID(i),
			At:    geo.Point{X: rng.Float64() * side, Y: rng.Float64() * side},
			Alive: true,
		}
		if rng.Intn(4) == 0 {
			txs = append(txs, sim.Transmission{
				Sender: infos[i].ID,
				From:   infos[i].At,
				Msg:    fmt.Sprintf("m%d", i),
			})
		}
	}
	return infos, txs
}

// timeDeliver measures the mean wall-clock cost of one Deliver call. The
// measurement is E10's output (a Measured column, blanked in deterministic
// runs), so the wall-clock read is deliberate here.
//
//detlint:walltime E10 measures per-round delivery cost; Dur columns are Measured
func timeDeliver(m *radio.Medium, rounds int, txs []sim.Transmission, infos []sim.NodeInfo) time.Duration {
	start := time.Now()
	for r := 0; r < rounds; r++ {
		m.Deliver(sim.Round(r), txs, infos)
	}
	return time.Since(start) / time.Duration(rounds)
}

// deliveryScalingCell is experiment E10 at one deployment size: per-round
// message-delivery cost, comparing the brute-force
// O(receivers x transmissions) scan against the R2-cell grid index. The
// grid timings must agree with the scan
// reception-for-reception (the equivalence property tested in
// internal/radio); only the cost changes — so every timing column is a
// measured (nondeterministic) value while nodes/txs stay deterministic.
func deliveryScalingCell(c *harness.Cell) []harness.Row {
	n, rounds := c.Params.Int("n"), c.Params.Int("rounds")
	infos, txs := scalingRound(n, int64(n)+c.Base())
	mode := func(m radio.DeliveryMode) *radio.Medium {
		return radio.MustMedium(radio.Config{
			Radii:    Radii,
			Detector: cd.AC{},
			Mode:     m,
			Seed:     c.Seed,
		})
	}
	scan := timeDeliver(mode(radio.ModeScan), rounds, txs, infos)
	grid := timeDeliver(mode(radio.ModeGrid), rounds, txs, infos)
	c.CountRounds(2 * rounds)
	speedup := float64(scan) / float64(grid)
	return []harness.Row{{
		harness.Int(n), harness.Int(len(txs)),
		harness.Dur(scan), harness.Dur(grid),
		harness.MeasuredFloat(metrics.F(speedup)+"x", speedup),
	}}
}
