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

// metroRound is the client-phase round of the metro-vi benchmark world, laid
// out as spec.Build lays it out: a 15x15 grid of virtual-node locations at
// spacing 6 (R1 10, R2 20), three replicas and a pinger at fixed offsets
// from each, and the pings of a virtual round whose pingers are those of the
// locations v ≡ 1 (mod 4) — 56 transmissions among 900 receivers. Listeners
// adds that many receive-only devices spread uniformly over the field (its
// bounding box plus 2 on every side), which makes it city-100k's round.
func metroRound(listeners int) ([]sim.NodeInfo, []sim.Transmission, geo.Radii) {
	var infos []sim.NodeInfo
	var txs []sim.Transmission
	add := func(at geo.Point) sim.NodeID {
		id := sim.NodeID(len(infos))
		infos = append(infos, sim.NodeInfo{ID: id, At: at, Alive: true})
		return id
	}
	locs := geo.Grid{Spacing: 6, Cols: 15, Rows: 15}.Locations()
	for _, loc := range locs {
		for i := 0; i < 3; i++ {
			add(geo.Point{X: loc.X + 0.3*float64(i) - 0.5, Y: loc.Y + 0.2})
		}
	}
	for v, loc := range locs {
		at := geo.Point{X: loc.X + 1.2, Y: loc.Y - 1}
		id := add(at)
		if v%4 == 1 {
			txs = append(txs, sim.Transmission{Sender: id, From: at, Msg: fmt.Sprintf("ping-%d", v)})
		}
	}
	rng := rand.New(rand.NewSource(404))
	for i := 0; i < listeners; i++ {
		add(geo.Point{X: -2 + rng.Float64()*88, Y: -2 + rng.Float64()*88})
	}
	return infos, txs, geo.Radii{R1: 10, R2: 20}
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

// BenchmarkDeliverDense delivers metroRound on an unforced medium: metro-vi's
// client round, and city-100k's (the same plus 100k listeners). It reports
// the candidates a receiver examined before its decision point.
func BenchmarkDeliverDense(b *testing.B) {
	for _, c := range []struct {
		name      string
		listeners int
	}{{"metro", 0}, {"city100k", 100_000}} {
		b.Run(c.name, func(b *testing.B) {
			infos, txs, radii := metroRound(c.listeners)
			m := MustMedium(Config{Radii: radii, Detector: cd.AC{}, Seed: 1})
			m.Deliver(0, txs, infos) // warm
			before := m.Work().Examined
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Deliver(sim.Round(i), txs, infos)
			}
			b.StopTimer()
			b.ReportMetric(float64(m.Work().Examined-before)/float64(b.N*len(infos)), "examined/rx")
		})
	}
}

// BenchmarkDeliverSilent is one of metro-vi's all-listen rounds (the
// unscheduled veto phases, join, join-ack): 670 awake receivers and no
// transmissions.
func BenchmarkDeliverSilent(b *testing.B) {
	infos, _, radii := metroRound(0)
	infos = infos[:670]
	m := MustMedium(Config{Radii: radii, Detector: cd.AC{}, Seed: 1})
	m.Deliver(0, nil, infos) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Deliver(sim.Round(i), nil, infos)
	}
}
