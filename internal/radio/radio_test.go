package radio

import (
	"testing"

	"vinfra/internal/cd"
	"vinfra/internal/geo"
	"vinfra/internal/sim"
)

var testRadii = geo.Radii{R1: 10, R2: 20}

func acMedium(t *testing.T, adv Adversary) *Medium {
	t.Helper()
	m, err := NewMedium(Config{Radii: testRadii, Detector: cd.AC{}, Adversary: adv})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func infos(alive bool, pts ...geo.Point) []sim.NodeInfo {
	out := make([]sim.NodeInfo, len(pts))
	for i, p := range pts {
		out[i] = sim.NodeInfo{ID: sim.NodeID(i), At: p, Alive: alive}
	}
	return out
}

func tx(id int, at geo.Point, msg string) sim.Transmission {
	return sim.Transmission{Sender: sim.NodeID(id), From: at, Msg: msg}
}

func TestNewMediumValidation(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{"valid", Config{Radii: testRadii, Detector: cd.AC{}}, false},
		{"bad radii", Config{Radii: geo.Radii{R1: 5, R2: 1}, Detector: cd.AC{}}, true},
		{"nil detector", Config{Radii: testRadii}, true},
		{"bad gray prob", Config{Radii: testRadii, Detector: cd.AC{}, GrayZoneDeliveryProb: 1.5}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewMedium(tt.cfg)
			if (err != nil) != tt.wantErr {
				t.Errorf("NewMedium error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

// TestReceptionWindowsAreCapped pins what sharing one arena costs the
// receivers: windows onto neighbouring entries are capped at their length,
// so a receiver appending to its Msgs gets a slice of its own rather than
// writing over the message another receiver heard.
func TestReceptionWindowsAreCapped(t *testing.T) {
	m := acMedium(t, nil)
	// Two senders 100 apart, each with a listener beside it.
	rxs := infos(true, geo.Point{X: 0}, geo.Point{X: 100}, geo.Point{X: 5}, geo.Point{X: 105})
	txs := []sim.Transmission{tx(0, geo.Point{X: 0}, "a"), tx(1, geo.Point{X: 100}, "b")}
	out := m.Deliver(0, txs, rxs)
	for i, want := range []string{"a", "b", "a", "b"} {
		if rx := out[i]; len(rx.Msgs) != 1 || rx.Msgs[0] != want || cap(rx.Msgs) != 1 {
			t.Fatalf("receiver %d: %+v (cap %d), want [%s] at cap 1", i, rx, cap(rx.Msgs), want)
		}
	}
	_ = append(out[2].Msgs, "spoofed")
	if out[3].Msgs[0] != "b" || out[1].Msgs[0] != "b" {
		t.Errorf("appending to one reception rewrote another's: %+v, %+v", out[1], out[3])
	}
}

func TestDeliveryWithinR1(t *testing.T) {
	m := acMedium(t, nil)
	rxs := infos(true, geo.Point{X: 0}, geo.Point{X: 5})
	out := m.Deliver(0, []sim.Transmission{tx(0, geo.Point{X: 0}, "hello")}, rxs)

	// Receiver 1 (listener at distance 5 < R1) hears the message, no collision.
	if len(out[1].Msgs) != 1 || out[1].Msgs[0] != "hello" {
		t.Errorf("listener reception = %+v, want [hello]", out[1])
	}
	if out[1].Collision {
		t.Error("clean delivery flagged a collision")
	}
	// Sender hears its own message.
	if len(out[0].Msgs) != 1 || out[0].Msgs[0] != "hello" {
		t.Errorf("sender loopback = %+v, want [hello]", out[0])
	}
}

func TestNoDeliveryBeyondR2(t *testing.T) {
	m := acMedium(t, nil)
	rxs := infos(true, geo.Point{X: 0}, geo.Point{X: 25})
	out := m.Deliver(0, []sim.Transmission{tx(0, geo.Point{X: 0}, "hello")}, rxs)
	if len(out[1].Msgs) != 0 {
		t.Errorf("node beyond R2 received %v", out[1].Msgs)
	}
	if out[1].Collision {
		t.Error("node beyond R2 saw a collision")
	}
}

func TestGrayZoneSilentByDefault(t *testing.T) {
	m := acMedium(t, nil)
	rxs := infos(true, geo.Point{X: 0}, geo.Point{X: 15})
	out := m.Deliver(0, []sim.Transmission{tx(0, geo.Point{X: 0}, "hello")}, rxs)
	if len(out[1].Msgs) != 0 {
		t.Errorf("gray-zone receiver got %v, want nothing", out[1].Msgs)
	}
	// An R2 message was lost, so an accurate detector may (and ours does)
	// report a collision.
	if !out[1].Collision {
		t.Error("gray-zone loss should trigger the AC detector")
	}
}

func TestGrayZoneProbabilisticDelivery(t *testing.T) {
	m := MustMedium(Config{Radii: testRadii, Detector: cd.AC{}, GrayZoneDeliveryProb: 1})
	rxs := infos(true, geo.Point{X: 0}, geo.Point{X: 15})
	out := m.Deliver(0, []sim.Transmission{tx(0, geo.Point{X: 0}, "hello")}, rxs)
	if len(out[1].Msgs) != 1 {
		t.Errorf("gray zone with p=1 should deliver, got %v", out[1].Msgs)
	}
	if out[1].Collision {
		t.Error("delivered gray-zone message should not flag collision")
	}
}

func TestContentionCollision(t *testing.T) {
	m := acMedium(t, nil)
	// Two transmitters within R2 of the listener: contention, nothing heard,
	// collision detected (completeness: both are within R1 here).
	rxs := infos(true, geo.Point{X: 0}, geo.Point{X: 5}, geo.Point{X: -5})
	txs := []sim.Transmission{
		tx(1, geo.Point{X: 5}, "a"),
		tx(2, geo.Point{X: -5}, "b"),
	}
	out := m.Deliver(0, txs, rxs)
	if len(out[0].Msgs) != 0 {
		t.Errorf("listener under contention received %v", out[0].Msgs)
	}
	if !out[0].Collision {
		t.Error("contention must be detected (completeness)")
	}
	// Each transmitter still hears itself but not the other, and detects
	// the collision.
	for _, id := range []int{1, 2} {
		if len(out[id].Msgs) != 1 {
			t.Errorf("transmitter %d heard %v, want only own message", id, out[id].Msgs)
		}
		if !out[id].Collision {
			t.Errorf("transmitter %d missed the collision", id)
		}
	}
}

func TestHiddenInterferer(t *testing.T) {
	m := acMedium(t, nil)
	// Transmitter A at x=0 is within R1 of the listener at x=8. A second
	// transmitter at x=25 is within R2 of the listener (distance 17) but
	// outside R1 — it jams the listener without being decodable.
	rxs := infos(true, geo.Point{X: 8}, geo.Point{X: 0}, geo.Point{X: 25})
	txs := []sim.Transmission{
		tx(1, geo.Point{X: 0}, "signal"),
		tx(2, geo.Point{X: 25}, "jam"),
	}
	out := m.Deliver(0, txs, rxs)
	if len(out[0].Msgs) != 0 {
		t.Errorf("jammed listener received %v", out[0].Msgs)
	}
	if !out[0].Collision {
		t.Error("jammed listener must detect the collision (R1 message lost)")
	}
	// The distant jammer (x=25) is beyond R2 of transmitter 1 (x=0,
	// distance 25), so transmitter 1 hears only itself with no collision.
	if out[1].Collision {
		t.Error("transmitter 1 should not see a collision")
	}
}

func TestNonUniformCollisions(t *testing.T) {
	m := acMedium(t, nil)
	// Listener 0 near both transmitters suffers contention; listener 3 far
	// from transmitter 2 hears transmitter 1 cleanly. "A message may be
	// received by some nodes, but not others" (Section 2).
	rxs := infos(true,
		geo.Point{X: 0},   // 0: hears both -> collision
		geo.Point{X: -5},  // 1: transmitter
		geo.Point{X: 5},   // 2: transmitter
		geo.Point{X: -24}, // 3: only transmitter 1 in R2 (19 < 20), in gray zone though
	)
	txs := []sim.Transmission{
		tx(1, geo.Point{X: -5}, "a"),
		tx(2, geo.Point{X: 5}, "b"),
	}
	out := m.Deliver(0, txs, rxs)
	if !out[0].Collision || len(out[0].Msgs) != 0 {
		t.Errorf("near listener: %+v, want collision and no messages", out[0])
	}
	if len(out[3].Msgs) != 0 {
		t.Errorf("far listener in gray zone got %v", out[3].Msgs)
	}
}

func TestCleanReceptionSingleTransmitter(t *testing.T) {
	m := acMedium(t, nil)
	// One transmitter, listener within R1, nothing else: message received,
	// no collision — this is the eventual collision freedom guarantee.
	rxs := infos(true, geo.Point{X: 0}, geo.Point{X: 9})
	out := m.Deliver(100, []sim.Transmission{tx(0, geo.Point{X: 0}, "m")}, rxs)
	if len(out[1].Msgs) != 1 || out[1].Collision {
		t.Errorf("clean round: %+v", out[1])
	}
}

func TestCrashedNodesIgnored(t *testing.T) {
	m := acMedium(t, nil)
	rxs := []sim.NodeInfo{
		{ID: 0, At: geo.Point{X: 0}, Alive: true},
		{ID: 1, At: geo.Point{X: 5}, Alive: false},
	}
	out := m.Deliver(0, []sim.Transmission{tx(0, geo.Point{X: 0}, "m")}, rxs)
	if len(out[1].Msgs) != 0 || out[1].Collision {
		t.Errorf("crashed node received %+v", out[1])
	}
}

func TestAdversaryDropTriggersCompleteness(t *testing.T) {
	adv := &Script{}
	adv.DropAll(0, 1)
	m, err := NewMedium(Config{
		Radii:     testRadii,
		Detector:  cd.EventuallyAC{Racc: 1000},
		Adversary: adv,
	})
	if err != nil {
		t.Fatal(err)
	}
	rxs := infos(true, geo.Point{X: 0}, geo.Point{X: 5}, geo.Point{X: 9})
	txs := []sim.Transmission{tx(0, geo.Point{X: 0}, "m")}

	out := m.Deliver(0, txs, rxs)
	if len(out[1].Msgs) != 0 {
		t.Errorf("dropped receiver got %v", out[1].Msgs)
	}
	if !out[1].Collision {
		t.Error("adversarial drop must still trigger the detector (completeness)")
	}
	// Node 2 is unaffected — non-uniform loss.
	if len(out[2].Msgs) != 1 || out[2].Collision {
		t.Errorf("unaffected receiver: %+v", out[2])
	}

	// Round 1: script expired, delivery resumes.
	out = m.Deliver(1, txs, rxs)
	if len(out[1].Msgs) != 1 || out[1].Collision {
		t.Errorf("after script: %+v", out[1])
	}
}

func TestAdversaryTargetedDrop(t *testing.T) {
	adv := &Script{}
	adv.Drop(0, 1, 0) // receiver 1 loses sender 0's message
	m := MustMedium(Config{Radii: testRadii, Detector: cd.AC{}, Adversary: adv})
	rxs := infos(true, geo.Point{X: 0}, geo.Point{X: 5})
	out := m.Deliver(0, []sim.Transmission{tx(0, geo.Point{X: 0}, "m")}, rxs)
	if len(out[1].Msgs) != 0 || !out[1].Collision {
		t.Errorf("targeted drop: %+v", out[1])
	}
}

func TestForcedCollisionRespectsAccuracy(t *testing.T) {
	adv := &Script{}
	adv.Collide(0, 0)
	adv.Collide(50, 0)
	m := MustMedium(Config{
		Radii:     testRadii,
		Detector:  cd.EventuallyAC{Racc: 10},
		Adversary: adv,
	})
	rxs := infos(true, geo.Point{X: 0})

	out := m.Deliver(0, nil, rxs)
	if !out[0].Collision {
		t.Error("forced collision before Racc should be reported")
	}
	out = m.Deliver(50, nil, rxs)
	if out[0].Collision {
		t.Error("forced collision after Racc must be suppressed (eventual accuracy)")
	}
}

func TestRandomLossIsBoundedByHorizon(t *testing.T) {
	adv := NewRandomLoss(1.0, 0, 5, 99)
	m := MustMedium(Config{Radii: testRadii, Detector: cd.AC{}, Adversary: adv})
	rxs := infos(true, geo.Point{X: 0}, geo.Point{X: 5})
	txs := []sim.Transmission{tx(0, geo.Point{X: 0}, "m")}
	for r := sim.Round(0); r < 5; r++ {
		out := m.Deliver(r, txs, rxs)
		if len(out[1].Msgs) != 0 {
			t.Errorf("round %d: p=1 loss should drop everything", r)
		}
	}
	out := m.Deliver(5, txs, rxs)
	if len(out[1].Msgs) != 1 {
		t.Error("after r_cf the adversary must be harmless")
	}
}

func TestPartitionAdversary(t *testing.T) {
	adv := NewPartition(10, 0)
	m := MustMedium(Config{Radii: testRadii, Detector: cd.AC{}, Adversary: adv})
	rxs := infos(true, geo.Point{X: 0}, geo.Point{X: 5})
	txs := []sim.Transmission{tx(1, geo.Point{X: 5}, "from-b")}

	out := m.Deliver(0, txs, rxs)
	if len(out[0].Msgs) != 0 {
		t.Error("cross-partition message delivered")
	}
	if !out[0].Collision {
		t.Error("partition loss must be detected (completeness)")
	}
	out = m.Deliver(10, txs, rxs)
	if len(out[0].Msgs) != 1 {
		t.Error("partition should heal at its horizon")
	}
}

func TestComposeAdversary(t *testing.T) {
	s1, s2 := &Script{}, &Script{}
	s1.Drop(0, 0, 1)
	s2.Collide(0, 0)
	adv := Compose{s1, s2}
	m := MustMedium(Config{Radii: testRadii, Detector: cd.EventuallyAC{Racc: 100}, Adversary: adv})
	rxs := infos(true, geo.Point{X: 0}, geo.Point{X: 5})
	out := m.Deliver(0, []sim.Transmission{tx(1, geo.Point{X: 5}, "m")}, rxs)
	if len(out[0].Msgs) != 0 || !out[0].Collision {
		t.Errorf("compose: %+v", out[0])
	}
}

func TestNoneAdversary(t *testing.T) {
	var n None
	txs := []sim.Transmission{tx(0, geo.Point{}, "m")}
	if got := n.Filter(0, 1, geo.Point{}, txs); len(got) != 1 {
		t.Error("None must pass everything through")
	}
	if n.ForceCollision(0, 1, geo.Point{}) {
		t.Error("None must not force collisions")
	}
}

func TestTwoIsolatedCellsNoCrosstalk(t *testing.T) {
	// Two pairs far apart transmit simultaneously; each pair communicates
	// cleanly — the spatial reuse that makes the VI schedule work.
	m := acMedium(t, nil)
	rxs := infos(true,
		geo.Point{X: 0}, geo.Point{X: 5},
		geo.Point{X: 100}, geo.Point{X: 105},
	)
	txs := []sim.Transmission{
		tx(0, geo.Point{X: 0}, "west"),
		tx(2, geo.Point{X: 100}, "east"),
	}
	out := m.Deliver(0, txs, rxs)
	if len(out[1].Msgs) != 1 || out[1].Msgs[0] != "west" || out[1].Collision {
		t.Errorf("west listener: %+v", out[1])
	}
	if len(out[3].Msgs) != 1 || out[3].Msgs[0] != "east" || out[3].Collision {
		t.Errorf("east listener: %+v", out[3])
	}
}
