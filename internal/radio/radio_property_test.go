package radio

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"vinfra/internal/cd"
	"vinfra/internal/geo"
	"vinfra/internal/sim"
)

// Property: completeness — for any geometry, any transmission set, and any
// adversarial drop pattern, a receiver that fails to receive a message
// broadcast within R1 gets a collision indication (Property 1 of the
// paper), as long as the detector is complete.
func TestCompletenessProperty(t *testing.T) {
	f := func(seed uint32, nRaw, txRaw uint8, lossP uint8) bool {
		n := int(nRaw%8) + 2
		r := rand.New(rand.NewSource(int64(seed)))
		infos := make([]sim.NodeInfo, n)
		for i := range infos {
			infos[i] = sim.NodeInfo{
				ID:    sim.NodeID(i),
				At:    geo.Point{X: r.Float64() * 50, Y: r.Float64() * 50},
				Alive: true,
			}
		}
		var txs []sim.Transmission
		for i := range infos {
			if r.Intn(3) < int(txRaw%3) {
				txs = append(txs, sim.Transmission{
					Sender: infos[i].ID,
					From:   infos[i].At,
					Msg:    fmt.Sprintf("m%d", i),
				})
			}
		}
		p := float64(lossP%10) / 10
		m := MustMedium(Config{
			Radii:     testRadii,
			Detector:  cd.EventuallyAC{Racc: 1000},
			Adversary: NewRandomLoss(p, 0, 1000, int64(seed)+7),
			Seed:      int64(seed) + 13,
		})
		out := m.Deliver(0, txs, infos)
		for i, rx := range out {
			if !infos[i].Alive {
				continue
			}
			// Which in-R1 messages from others were broadcast?
			for _, tx := range txs {
				if tx.Sender == infos[i].ID {
					continue
				}
				if !tx.From.Within(infos[i].At, testRadii.R1) {
					continue
				}
				received := false
				for _, msg := range rx.Msgs {
					if msg == tx.Msg {
						received = true
						break
					}
				}
				if !received && !rx.Collision {
					return false // completeness violated
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: accuracy with the AC detector — a collision is reported only
// when some in-R2 message was actually lost.
func TestAccuracyProperty(t *testing.T) {
	f := func(seed uint32, nRaw uint8) bool {
		n := int(nRaw%8) + 2
		r := rand.New(rand.NewSource(int64(seed)))
		infos := make([]sim.NodeInfo, n)
		for i := range infos {
			infos[i] = sim.NodeInfo{
				ID:    sim.NodeID(i),
				At:    geo.Point{X: r.Float64() * 60, Y: r.Float64() * 60},
				Alive: true,
			}
		}
		var txs []sim.Transmission
		for i := range infos {
			if r.Intn(2) == 0 {
				txs = append(txs, sim.Transmission{
					Sender: infos[i].ID, From: infos[i].At, Msg: fmt.Sprintf("m%d", i),
				})
			}
		}
		m := MustMedium(Config{Radii: testRadii, Detector: cd.AC{}, Seed: int64(seed) + 3})
		out := m.Deliver(0, txs, infos)
		for i, rx := range out {
			if !rx.Collision {
				continue
			}
			// Some in-R2 message from another node must be missing.
			lost := false
			for _, tx := range txs {
				if tx.Sender == infos[i].ID {
					continue
				}
				if !tx.From.Within(infos[i].At, testRadii.R2) {
					continue
				}
				received := false
				for _, msg := range rx.Msgs {
					if msg == tx.Msg {
						received = true
						break
					}
				}
				if !received {
					lost = true
					break
				}
			}
			if !lost {
				return false // false positive from an accurate detector
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: loopback — a transmitter always receives its own message,
// whatever else happens.
func TestLoopbackProperty(t *testing.T) {
	f := func(seed uint32, nRaw uint8) bool {
		n := int(nRaw%6) + 1
		r := rand.New(rand.NewSource(int64(seed)))
		infos := make([]sim.NodeInfo, n)
		var txs []sim.Transmission
		for i := range infos {
			infos[i] = sim.NodeInfo{
				ID:    sim.NodeID(i),
				At:    geo.Point{X: r.Float64() * 10, Y: r.Float64() * 10},
				Alive: true,
			}
			txs = append(txs, sim.Transmission{
				Sender: infos[i].ID, From: infos[i].At, Msg: fmt.Sprintf("m%d", i),
			})
		}
		m := MustMedium(Config{
			Radii:     testRadii,
			Detector:  cd.AC{},
			Adversary: NewRandomLoss(0.9, 0, 1000, int64(seed)),
			Seed:      int64(seed),
		})
		out := m.Deliver(0, txs, infos)
		for i, rx := range out {
			own := fmt.Sprintf("m%d", i)
			found := false
			for _, msg := range rx.Msgs {
				if msg == own {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
