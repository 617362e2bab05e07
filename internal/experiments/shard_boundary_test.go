package experiments

import (
	"reflect"
	"slices"
	"testing"

	"vinfra/internal/cd"
	"vinfra/internal/faults"
	"vinfra/internal/geo"
	"vinfra/internal/radio"
	"vinfra/internal/sim"
)

// strideSender broadcasts a string tag every stride-th round.
type strideSender struct {
	tag    string
	stride int
}

func (s *strideSender) Transmit(r sim.Round) sim.Message {
	if int(r)%s.stride != 0 {
		return nil
	}
	return s.tag
}

func (s *strideSender) Receive(sim.Round, sim.Reception) {}

// listener records every reception.
type listener struct {
	heard []sim.Reception
}

func (l *listener) Transmit(sim.Round) sim.Message { return nil }

// Receive keeps every reception, so it copies Msgs: the medium reuses the
// slice next round.
func (l *listener) Receive(_ sim.Round, rx sim.Reception) {
	rx.Msgs = slices.Clone(rx.Msgs)
	l.heard = append(l.heard, rx)
}

// shardEdgeWorld builds the exact-boundary geometry shared by the
// sequential and sharded runs, and returns the per-node reception logs.
//
// Cells are R2 = 20 wide. Static anchors at x = 0.5 and x = 79.5 pin the
// occupied cell bounding box to cells 0..3, so a 2x1 shard plan puts the
// shard edge at x = 40: shard 0 owns cells 0-1, shard 1 owns cells 2-3.
//
//	anchor   sender A     edge  rxOnEdge      rxR2     sender B   anchor
//	x=0.5    x=39.75     x=40 (cell 2)       x=59.75   x=74.75    x=79.5
//	[ shard 0              ][ shard 1                                  ]
//
// Sender A sits in shard 0's boundary band; rxR2 is in the NEIGHBOR
// shard's boundary band at distance exactly R2 from A (39.75 and 59.75 are
// exactly representable, so the distance is exactly 20.0 — the inclusive
// gray-zone edge). rxOnEdge stands exactly on the shard edge, 0.25 from A
// (inside R1). Sender B gives rxR2 contention rounds: when both A (stride
// 2) and B (stride 3) transmit, rxR2 has two transmissions within R2 and
// must hear nothing.
func shardEdgeWorld(t *testing.T, rounds int, grayProb float64, jam, sharded, parallel bool) map[string][]sim.Reception {
	t.Helper()
	cfg := radio.Config{
		Radii:                Radii, // R1 = 10, R2 = 20
		Detector:             cd.AC{},
		GrayZoneDeliveryProb: grayProb,
		Seed:                 5,
	}
	if jam {
		// Duty-cycled jammer parked on rxR2: jammed on even rounds (Period
		// 2, Burst 1), clear on odd — the same transmission landing at
		// exactly R2 must survive or die identically in both engines.
		cfg.Adversary = &faults.RegionJammer{
			Targets: []geo.Point{{X: 59.75, Y: 10}},
			Radius:  1,
			Period:  2,
			Burst:   1,
			Seed:    77,
		}
	}
	opts := []sim.Option{sim.WithSeed(5)}
	if sharded {
		opts = append(opts, sim.WithRegionShards(2, 1, Radii.R2, func() sim.Medium {
			return radio.MustMedium(cfg)
		}))
	}
	if parallel {
		opts = append(opts, sim.WithParallel())
	}
	var medium sim.Medium
	if !sharded {
		medium = radio.MustMedium(cfg)
	}
	eng := sim.NewEngine(medium, opts...)

	nodes := map[string]*listener{}
	addListener := func(name string, p geo.Point) {
		l := &listener{}
		nodes[name] = l
		eng.Attach(p, nil, func(sim.Env) sim.Node { return l })
	}
	addSender := func(tag string, p geo.Point, stride int) {
		eng.Attach(p, nil, func(sim.Env) sim.Node { return &strideSender{tag: tag, stride: stride} })
	}
	addListener("anchorL", geo.Point{X: 0.5, Y: 10})
	addSender("A", geo.Point{X: 39.75, Y: 10}, 2)
	addListener("rxOnEdge", geo.Point{X: 40, Y: 10})
	addListener("rxR2", geo.Point{X: 59.75, Y: 10})
	addSender("B", geo.Point{X: 74.75, Y: 10}, 3)
	addListener("anchorR", geo.Point{X: 79.5, Y: 10})

	eng.Run(rounds)
	out := map[string][]sim.Reception{}
	for name, l := range nodes {
		out[name] = l.heard
	}
	return out
}

// TestShardBoundaryExactR2 is the boundary-correctness pin of the sharded
// engine: a transmission landing exactly at distance R2 on the shard edge,
// with the receiver in the neighbor shard's boundary band, is received
// identically in sharded and sequential modes — delivered (gray zone open),
// suppressed (gray zone closed), contended (second sender in range), and
// jammed (duty-cycled RegionJammer on the receiver) alike.
func TestShardBoundaryExactR2(t *testing.T) {
	const rounds = 12
	// The geometry really is the exact edge: 59.75 - 39.75 == 20.0 == R2.
	if d := (geo.Point{X: 59.75, Y: 10}).Dist(geo.Point{X: 39.75, Y: 10}); d != Radii.R2 {
		t.Fatalf("test geometry drifted: sender-receiver distance %v != R2 %v", d, Radii.R2)
	}
	for _, tc := range []struct {
		name     string
		grayProb float64
		jam      bool
	}{
		{"gray-open", 1, false},
		{"gray-closed", 0, false},
		{"gray-open-jammed", 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := shardEdgeWorld(t, rounds, tc.grayProb, tc.jam, false, false)
			for _, par := range []bool{false, true} {
				got := shardEdgeWorld(t, rounds, tc.grayProb, tc.jam, true, par)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("parallel=%v: sharded receptions diverge from sequential:\ngot:  %+v\nwant: %+v",
						par, got, want)
				}
			}

			// Non-vacuousness: pin what the boundary actually does.
			rxR2 := want["rxR2"]
			heardA := func(r int) bool {
				for _, m := range rxR2[r].Msgs {
					if m == "A" {
						return true
					}
				}
				return false
			}
			// Round 2: A transmits alone (2%3 != 0). The exact-R2 message
			// crosses the shard edge iff the gray zone is open and the
			// receiver is not jammed (round 2 is a jammed phase: Period 2,
			// Burst 1 jams even rounds).
			wantHear := tc.grayProb > 0 && !tc.jam
			if heardA(2) != wantHear {
				t.Errorf("round 2 (A alone): rxR2 heard A = %v, want %v", heardA(2), wantHear)
			}
			if tc.jam && tc.grayProb > 0 {
				// Odd clear phase: round 3 has B alone (no A), round 9 too;
				// A-alone rounds are even (2, 4, 8, 10) and all jammed, so
				// rxR2 must never hear A — but the jam must not leak into
				// the unjammed rxOnEdge, which keeps hearing A in R1.
				for r := 0; r < rounds; r++ {
					if heardA(r) {
						t.Errorf("round %d: rxR2 heard A through an even-round jam", r)
					}
				}
			}
			if r := 6; tc.grayProb > 0 && !tc.jam {
				// Round 6: both A and B transmit — two transmissions within
				// R2 of rxR2, so contention silences it.
				if heardA(r) {
					t.Errorf("round %d (A and B): rxR2 heard A through a collision", r)
				}
				if len(rxR2[r].Msgs) != 0 {
					t.Errorf("round %d (A and B): rxR2 heard %v, want nothing", r, rxR2[r].Msgs)
				}
			}
			// rxOnEdge stands exactly on the shard edge (owned by the
			// neighbor shard) 0.25 from A: it hears A on every A-round
			// where B is silent, in every configuration (the jammer
			// footprint does not cover it).
			rxEdge := want["rxOnEdge"]
			for _, r := range []int{2, 4, 8, 10} {
				found := false
				for _, m := range rxEdge[r].Msgs {
					if m == "A" {
						found = true
					}
				}
				if !found {
					t.Errorf("round %d: rxOnEdge (on the shard edge, inside R1) did not hear A: %+v", r, rxEdge[r])
				}
			}
		})
	}
}
