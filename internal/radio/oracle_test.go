package radio

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"vinfra/internal/cd"
	"vinfra/internal/det"
	"vinfra/internal/geo"
	"vinfra/internal/sim"
)

// referenceDeliver is the medium's scan as it stood before delivery was
// rewritten to classify candidates by index and count, find a receiver's
// own transmission by a sender walk and key the receiver's random stream
// lazily: every receiver scans every transmission, copies the ones in range
// into inR1 and gray, keys its stream up front, and derives the detector's
// ground truth by searching the delivered set. It shares no code with
// Medium.Deliver beyond Config, and is the oracle every mode is held to.
func referenceDeliver(cfg Config, r sim.Round, txs []sim.Transmission, rxs []sim.NodeInfo) []sim.Reception {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	out := make([]sim.Reception, len(rxs))
	for i, rx := range rxs {
		if !rx.Alive {
			out[i] = sim.Reception{}
			continue
		}
		var own *sim.Transmission
		var inR1, gray []sim.Transmission
		for j := range txs {
			tx := txs[j]
			if tx.Sender == rx.ID {
				own = &txs[j]
				continue
			}
			d2 := tx.From.Dist2(rx.At)
			switch {
			case d2 <= cfg.Radii.R1*cfg.Radii.R1:
				inR1 = append(inR1, tx)
			case d2 <= cfg.Radii.R2*cfg.Radii.R2:
				gray = append(gray, tx)
			}
		}
		rng := det.NewStream(cfg.Seed, int64(r), int64(rx.ID))
		var deliverable []sim.Transmission
		if len(inR1)+len(gray) == 1 && own == nil {
			deliverable = append(deliverable, inR1...)
			for _, tx := range gray {
				if cfg.GrayZoneDeliveryProb > 0 && rng.Float64() < cfg.GrayZoneDeliveryProb {
					deliverable = append(deliverable, tx)
				}
			}
		}
		delivered, spurious := deliverable, false
		if cfg.Adversary != nil {
			delivered = cfg.Adversary.Filter(r, rx.ID, rx.At, deliverable)
			spurious = cfg.Adversary.ForceCollision(r, rx.ID, rx.At)
		}
		has := func(sender sim.NodeID) bool {
			for _, tx := range delivered {
				if tx.Sender == sender {
					return true
				}
			}
			return false
		}
		lostR1, lostR2 := false, false
		for _, tx := range inR1 {
			if !has(tx.Sender) {
				lostR1, lostR2 = true, true
			}
		}
		for _, tx := range gray {
			if !has(tx.Sender) {
				lostR2 = true
			}
		}
		out[i] = sim.Reception{Collision: cfg.Detector.Report(r, lostR1, lostR2, spurious, rng.Float64)}
		if own == nil && len(delivered) == 0 {
			continue
		}
		if own != nil {
			out[i].Msgs = append(out[i].Msgs, own.Msg)
		}
		for _, tx := range delivered {
			out[i].Msgs = append(out[i].Msgs, tx.Msg)
		}
	}
	return out
}

// checkAllModes delivers the round through the reference and through a
// fresh medium of every mode, twice each (the second call runs on warm,
// reused buffers), and requires identical receptions.
func checkAllModes(t *testing.T, label string, cfg Config, rounds int, txs []sim.Transmission, rxs []sim.NodeInfo) {
	t.Helper()
	checkAllModesFrom(t, label, cfg, 0, rounds, txs, rxs)
}

// checkAllModesFrom is checkAllModes over the rounds from, from+1, ….
func checkAllModesFrom(t *testing.T, label string, cfg Config, from sim.Round, rounds int, txs []sim.Transmission, rxs []sim.NodeInfo) {
	t.Helper()
	for _, mode := range []path{pathScan, pathGrid, pathAuto} {
		m := Forced(cfg, mode)
		for r := from; r < from+sim.Round(rounds); r++ {
			want := referenceDeliver(cfg, r, txs, rxs)
			for pass := 0; pass < 2; pass++ {
				got := m.Deliver(r, txs, rxs)
				if len(got) != len(want) {
					t.Fatalf("%s: mode %d returned %d receptions for %d receivers", label, mode, len(got), len(rxs))
				}
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("%s: mode %d round %d pass %d: receiver %d (index %d) got %+v, reference %+v",
							label, mode, r, pass, rxs[i].ID, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// plainConfigs are the configurations a medium counts the rounds of (see
// Deliver) — AC, and ◇AC from its accuracy round on, with no adversary and
// no gray zone — each with the first round it is counted in.
func plainConfigs(radii geo.Radii, seed int64) []struct {
	cfg  Config
	from sim.Round
} {
	return []struct {
		cfg  Config
		from sim.Round
	}{
		{Config{Radii: radii, Detector: cd.AC{}, Seed: seed}, 0},
		{Config{Radii: radii, Detector: cd.EventuallyAC{Racc: 2}, Seed: seed}, 2},
	}
}

// filterAndForce drops every message from an odd sender at an even receiver
// and forces a collision wherever (round + receiver) is a multiple of three.
type filterAndForce struct{}

func (filterAndForce) Filter(_ sim.Round, rx sim.NodeID, _ geo.Point, d []sim.Transmission) []sim.Transmission {
	if rx%2 != 0 {
		return d
	}
	var kept []sim.Transmission
	for _, tx := range d {
		if tx.Sender%2 == 0 {
			kept = append(kept, tx)
		}
	}
	return kept
}

func (filterAndForce) ForceCollision(r sim.Round, rx sim.NodeID, _ geo.Point) bool {
	return (int(r)+int(rx))%3 == 0
}

// TestDeliverMatchesReference extends the grid ≡ scan property to the
// inputs the rewritten delivery path treats specially, each on top of
// randomized rounds with negative coordinates: positions and origins
// exactly on R2-cell edges, coincident senders, a sender whose From is far
// from where it stands (the half-duplex identity rule), transmissions and
// receivers handed over shuffled, a sender listed twice, a shard-style call
// whose receivers are a NodeID-sparse subset, dead receivers, and an
// adversary that both filters and forces collisions — against a detector
// that draws, with gray-zone delivery on, so the lazily keyed stream has to
// produce the draws the eagerly keyed one did. Every input is also delivered
// under the plain configurations (plainConfigs), whose rounds are counted.
func TestDeliverMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 12 + rng.Intn(90)
		radii, infos, txs := randomRound(rng, n)
		cfg := Config{
			Radii:                radii,
			Detector:             cd.EventuallyAC{Racc: 2, FalsePositiveRate: 0.3},
			GrayZoneDeliveryProb: []float64{0, 0.5, 1}[rng.Intn(3)],
			Seed:                 seed + 100,
		}
		switch seed % 4 {
		case 1:
			cfg.Adversary = filterAndForce{}
		case 2:
			cfg.Adversary = NewRandomLoss(0.5, 0.3, 3, seed)
		case 3:
			cfg.Adversary = Compose{filterAndForce{}, NewRandomLoss(0.3, 0.1, 2, seed)}
		}
		label := func(s string) string { return fmt.Sprintf("seed %d (n=%d, %d txs): %s", seed, n, len(txs), s) }
		plain := plainConfigs(radii, seed+100)
		check := func(s string, rounds int, txs []sim.Transmission, rxs []sim.NodeInfo) {
			t.Helper()
			checkAllModes(t, label(s), cfg, rounds, txs, rxs)
			for _, p := range plain {
				checkAllModesFrom(t, label(s+", plain"), p.cfg, p.from, rounds, txs, rxs)
			}
		}
		check("as generated", 3, txs, infos)

		// Snap a third of the positions, and the origins with them, onto
		// cell corners and edges.
		edge := append([]sim.NodeInfo(nil), infos...)
		edgeTxs := append([]sim.Transmission(nil), txs...)
		for i := range edge {
			switch rng.Intn(6) {
			case 0:
				edge[i].At.X = math.Floor(edge[i].At.X/radii.R2) * radii.R2
			case 1:
				edge[i].At = geo.Point{X: math.Floor(edge[i].At.X/radii.R2) * radii.R2, Y: math.Ceil(edge[i].At.Y/radii.R2) * radii.R2}
			}
		}
		for i := range edgeTxs {
			edgeTxs[i].From = edge[edgeTxs[i].Sender].At
		}
		check("on cell edges", 2, edgeTxs, edge)

		if len(txs) < 3 {
			continue
		}
		// Coincident senders: three transmissions from one point, one of
		// them also standing there.
		co := append([]sim.Transmission(nil), txs...)
		co[1].From, co[2].From = co[0].From, co[0].From
		coInfos := append([]sim.NodeInfo(nil), infos...)
		coInfos[co[1].Sender].At = co[0].From
		check("coincident senders", 2, co, coInfos)

		// A sender whose recorded origin is far from where it stands.
		stale := append([]sim.Transmission(nil), txs...)
		stale[0].From = geo.Point{X: stale[0].From.X + 40*radii.R2, Y: -stale[0].From.Y}
		stale[1].From = infos[stale[2].Sender].At // and one claiming a neighbour's spot
		check("stale From", 2, stale, infos)

		// Shuffled transmissions and receivers, and a sender listed twice
		// (from two different origins; it hears its later entry).
		shTxs := append([]sim.Transmission(nil), txs...)
		dup := shTxs[rng.Intn(len(shTxs))]
		dup.From = infos[rng.Intn(n)].At
		dup.Msg = "dup"
		shTxs = append(shTxs, dup)
		check("duplicate sender, ordered", 2, shTxs, infos)
		rng.Shuffle(len(shTxs), func(i, j int) { shTxs[i], shTxs[j] = shTxs[j], shTxs[i] })
		shRxs := append([]sim.NodeInfo(nil), infos...)
		rng.Shuffle(len(shRxs), func(i, j int) { shRxs[i], shRxs[j] = shRxs[j], shRxs[i] })
		shRxs = append(shRxs, shRxs[0], shRxs[len(shRxs)/2]) // receivers listed twice
		check("shuffled", 2, shTxs, shRxs)

		// A shard's call: a sparse, NodeID-ordered resident subset, every
		// transmission as a candidate.
		var residents []sim.NodeInfo
		for i := range infos {
			if rng.Intn(3) == 0 {
				residents = append(residents, infos[i])
			}
		}
		check("resident subset", 2, txs, residents)
		check("no residents", 1, txs, nil)
		check("no transmissions", 1, nil, infos)
	}
}

// TestDeliverHostileOrigins is the medium's half of the hostile-coordinate
// rule: a round carrying a transmission whose From is NaN, infinite or
// astronomically far away — or merely a billion units from the others —
// still equals the reference scan in every mode, receivers standing at such
// points included — also under the plain configurations, whose rounds are
// counted — and the grid's memory stays a fixed multiple of the
// transmission count.
func TestDeliverHostileOrigins(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	rng := rand.New(rand.NewSource(3))
	radii, infos, txs := randomRound(rng, 80)
	cfg := Config{Radii: radii, Detector: cd.EventuallyAC{Racc: 1, FalsePositiveRate: 0.2}, GrayZoneDeliveryProb: 0.5, Seed: 4}
	for _, tc := range []struct {
		name string
		at   geo.Point
	}{
		{"NaN", geo.Point{X: nan, Y: 1}},
		{"+Inf", geo.Point{X: 1, Y: inf}},
		{"-Inf", geo.Point{X: -inf, Y: -inf}},
		{"1e300", geo.Point{X: 1e300, Y: 1e300}},
		{"-1e300", geo.Point{X: -1e300, Y: 3}},
		{"1e20", geo.Point{X: 1e20, Y: -1e20}},
		{"1e9", geo.Point{X: 1e9, Y: 2}},
		{"-1e15", geo.Point{X: 5, Y: -1e15}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hTxs := append([]sim.Transmission(nil), txs...)
			hInfos := append([]sim.NodeInfo(nil), infos...)
			// One sender transmits from the hostile point while standing
			// somewhere sane; another stands at the hostile point and
			// transmits from there; a listener stands there too.
			hTxs[0].From = tc.at
			hInfos[hTxs[1].Sender].At = tc.at
			hTxs[1].From = tc.at
			for i := range hInfos {
				if hInfos[i].Alive && hInfos[i].ID != hTxs[1].Sender && hInfos[i].ID != hTxs[0].Sender {
					hInfos[i].At = tc.at
					break
				}
			}
			checkAllModes(t, tc.name, cfg, 2, hTxs, hInfos)
			for _, p := range plainConfigs(radii, 4) {
				checkAllModesFrom(t, tc.name+", plain", p.cfg, p.from, 2, hTxs, hInfos)
			}

			m := Forced(cfg, pathGrid)
			m.Deliver(0, hTxs, hInfos)
			if limit := len(hTxs)*gridCellsPerTx + gridMinCells; cap(m.grid.start) > limit+1 || cap(m.grid.items) > 9*len(hTxs) {
				t.Errorf("grid holds %d cells and %d items for %d transmissions, bound %d cells",
					cap(m.grid.start)-1, cap(m.grid.items), len(hTxs), limit)
			}
		})
	}

	// Two transmissions a billion units apart, nothing else: the grid must
	// coarsen (or give up), not allocate one cell per R2 square between them.
	far := []sim.Transmission{
		{Sender: 0, From: geo.Point{}, Msg: "a"},
		{Sender: 1, From: geo.Point{X: 1e9, Y: 1e9}, Msg: "b"},
	}
	rxs := []sim.NodeInfo{
		{ID: 0, At: geo.Point{}, Alive: true},
		{ID: 1, At: geo.Point{X: 1e9, Y: 1e9}, Alive: true},
		{ID: 2, At: geo.Point{X: 3}, Alive: true},
		{ID: 3, At: geo.Point{X: 1e9 - 2, Y: 1e9}, Alive: true},
		{ID: 4, At: geo.Point{X: 5e8, Y: 5e8}, Alive: true},
	}
	checkAllModes(t, "1e9 apart", cfg, 2, far, rxs)
	for _, p := range plainConfigs(radii, 4) {
		checkAllModesFrom(t, "1e9 apart, plain", p.cfg, p.from, 2, far, rxs)
	}
	m := Forced(cfg, pathGrid)
	m.Deliver(0, far, rxs) // warm
	if avg := testing.AllocsPerRun(10, func() { m.Deliver(1, far, rxs) }); avg > float64(2*len(far)) {
		t.Errorf("Deliver with origins 1e9 apart allocates %.0f times per round, want O(txs)", avg)
	}
	if cells := cap(m.grid.start); cells > len(far)*gridCellsPerTx+gridMinCells+1 {
		t.Errorf("grid of %d cells for %d transmissions", cells, len(far))
	}
}
