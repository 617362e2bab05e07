package radio

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"vinfra/internal/cd"
	"vinfra/internal/geo"
	"vinfra/internal/sim"
)

// randomRound builds a randomized scenario: node positions scattered over a
// field sized to the node count (roughly constant density), a random subset
// transmitting, random radii, and a few dead nodes.
func randomRound(rng *rand.Rand, n int) (geo.Radii, []sim.NodeInfo, []sim.Transmission) {
	radii := geo.Radii{R1: 2 + rng.Float64()*10}
	radii.R2 = radii.R1 * (1 + rng.Float64())
	side := 10 + 4*float64(n)*rng.Float64()
	infos := make([]sim.NodeInfo, n)
	var txs []sim.Transmission
	for i := range infos {
		infos[i] = sim.NodeInfo{
			ID:    sim.NodeID(i),
			At:    geo.Point{X: rng.Float64()*side - side/2, Y: rng.Float64()*side - side/2},
			Alive: rng.Intn(10) > 0,
		}
		if infos[i].Alive && rng.Intn(3) > 0 {
			txs = append(txs, sim.Transmission{
				Sender: infos[i].ID,
				From:   infos[i].At,
				Msg:    fmt.Sprintf("m%d", i),
			})
		}
	}
	return radii, infos, txs
}

// TestGridScanEquivalence is the tentpole's safety net: across randomized
// positions, radii, adversaries, gray-zone settings, and rounds, the
// grid-indexed medium must produce receptions identical to the brute-force
// scan — same messages, same order, same collision indications.
func TestGridScanEquivalence(t *testing.T) {
	f := func(seed uint32, nRaw uint8, advRaw, grayRaw uint8) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := int(nRaw%120) + 2
		radii, infos, txs := randomRound(rng, n)

		var adv Adversary
		switch advRaw % 3 {
		case 1:
			adv = NewRandomLoss(0.3+rng.Float64()*0.5, 0.2, 50, int64(seed)*13)
		case 2:
			s := &Script{}
			for i := 0; i < 5; i++ {
				s.Drop(sim.Round(rng.Intn(4)), sim.NodeID(rng.Intn(n)), sim.NodeID(rng.Intn(n)))
				s.Collide(sim.Round(rng.Intn(4)), sim.NodeID(rng.Intn(n)))
			}
			adv = s
		}
		gray := 0.0
		if grayRaw%2 == 1 {
			gray = rng.Float64()
		}
		base := Config{
			Radii:                radii,
			Detector:             cd.EventuallyAC{Racc: 2, FalsePositiveRate: 0.2},
			Adversary:            adv,
			GrayZoneDeliveryProb: gray,
			Seed:                 int64(seed) + 5,
		}
		scan := Forced(base, pathScan)
		grid := Forced(base, pathGrid)

		for r := sim.Round(0); r < 4; r++ {
			a := scan.Deliver(r, txs, infos)
			b := grid.Deliver(r, txs, infos)
			if !reflect.DeepEqual(a, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// beacon transmits on a per-node stride and logs everything it hears.
type beacon struct {
	env   sim.Env
	heard []sim.Reception
}

func (b *beacon) Transmit(r sim.Round) sim.Message {
	if (int(r)+int(b.env.ID()))%3 != 0 {
		return nil
	}
	return fmt.Sprintf("b%d@%d", b.env.ID(), r)
}

// Receive keeps every reception, so it copies Msgs: the medium reuses the
// slice next round.
func (b *beacon) Receive(_ sim.Round, rx sim.Reception) {
	rx.Msgs = slices.Clone(rx.Msgs)
	b.heard = append(b.heard, rx)
}

// TestShardMediumsShareAdversary is the concurrency half of the Adversary
// contract (run under -race in CI): the shard mediums of a region-sharded
// parallel engine deliver at the same time and all consult one RandomLoss,
// each with only its own residents — and every reception still equals the
// single-medium sequential run's.
func TestShardMediumsShareAdversary(t *testing.T) {
	radii := geo.Radii{R1: 6, R2: 9}
	cfg := Config{
		Radii:                radii,
		Detector:             cd.EventuallyAC{Racc: 4, FalsePositiveRate: 0.3},
		Adversary:            NewRandomLoss(0.4, 0.2, 50, 11),
		GrayZoneDeliveryProb: 0.5,
		Seed:                 12,
	}
	run := func(opts ...sim.Option) [][]sim.Reception {
		e := sim.NewEngine(MustMedium(cfg), opts...)
		defer e.Close()
		rng := rand.New(rand.NewSource(5))
		nodes := make([]*beacon, 120)
		for i := range nodes {
			pos := geo.Point{X: rng.Float64() * 60, Y: rng.Float64() * 60}
			e.Attach(pos, nil, func(env sim.Env) sim.Node {
				nodes[i] = &beacon{env: env}
				return nodes[i]
			})
		}
		e.Run(8)
		heard := make([][]sim.Reception, len(nodes))
		for i, n := range nodes {
			heard[i] = n.heard
		}
		return heard
	}
	want := run()
	for _, k := range [][2]int{{2, 2}, {3, 3}} {
		got := run(sim.WithWorkers(0), sim.WithRegionShards(k[0], k[1], radii.R2, func() sim.Medium {
			return MustMedium(cfg)
		}))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%dx%d shard mediums sharing one adversary diverge from the single-medium run", k[0], k[1])
		}
	}
}

// TestGridScanEquivalenceStaleFrom pins the half-duplex rule for a
// transmission whose claimed origin is far from its sender's current
// position: the grid can't find it by position near the sender, so it must
// be looked up by identity, or the modes diverge.
func TestGridScanEquivalenceStaleFrom(t *testing.T) {
	radii := geo.Radii{R1: 10, R2: 20}
	infos := []sim.NodeInfo{
		{ID: 0, At: geo.Point{X: 0}, Alive: true},
		{ID: 1, At: geo.Point{X: 5}, Alive: true},
	}
	txs := []sim.Transmission{
		// Node 0 transmits, but the recorded origin is nowhere near it.
		{Sender: 0, From: geo.Point{X: 500}, Msg: "stale"},
		{Sender: 1, From: geo.Point{X: 5}, Msg: "near"},
	}
	base := Config{Radii: radii, Detector: cd.AC{}, Seed: 3}
	want := Forced(base, pathScan).Deliver(0, txs, infos)
	got := Forced(base, pathGrid).Deliver(0, txs, infos)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stale-From receptions diverge:\nscan: %+v\ngrid: %+v", want, got)
	}
}

// TestAutoModeMatchesScan pins the medium's own per-round choice to the
// reference scan on both sides of the index threshold.
func TestAutoModeMatchesScan(t *testing.T) {
	for _, n := range []int{4, 200} {
		rng := rand.New(rand.NewSource(int64(n)))
		radii, infos, txs := randomRound(rng, n)
		base := Config{Radii: radii, Detector: cd.AC{}, Seed: 9}
		want := Forced(base, pathScan).Deliver(0, txs, infos)
		got := MustMedium(base).Deliver(0, txs, infos)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("n=%d: an unforced medium's receptions diverge from the scan's", n)
		}
	}
}
