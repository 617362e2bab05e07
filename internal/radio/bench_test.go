package radio

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vinfra/internal/cd"
	"vinfra/internal/geo"
	"vinfra/internal/sim"
)

// benchScenario scatters n nodes uniformly at constant density (about
// twelve nodes per R2 disk) with a quarter of them transmitting — the
// regime the virtual-infrastructure emulator runs in at scale.
func benchScenario(n int) ([]sim.NodeInfo, []sim.Transmission, geo.Radii) {
	radii := geo.Radii{R1: 10, R2: 20}
	side := math.Sqrt(float64(n) / 12 * math.Pi * radii.R2 * radii.R2)
	rng := rand.New(rand.NewSource(int64(n)))
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
	return infos, txs, radii
}

func benchDeliver(b *testing.B, n int, mode path) {
	infos, txs, radii := benchScenario(n)
	m := Forced(Config{
		Radii:    radii,
		Detector: cd.AC{},
		Seed:     1,
	}, mode)
	b.ReportMetric(float64(len(txs)), "txs")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Deliver(sim.Round(i), txs, infos)
	}
}

// The scan/grid pairs below are the tentpole's before/after numbers: the
// acceptance bar is grid at 10k nodes >= 5x fewer ns/op than scan.

func BenchmarkDeliverScan1k(b *testing.B)  { benchDeliver(b, 1_000, pathScan) }
func BenchmarkDeliverGrid1k(b *testing.B)  { benchDeliver(b, 1_000, pathGrid) }
func BenchmarkDeliverScan10k(b *testing.B) { benchDeliver(b, 10_000, pathScan) }
func BenchmarkDeliverGrid10k(b *testing.B) { benchDeliver(b, 10_000, pathGrid) }
