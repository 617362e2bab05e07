package radio

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"vinfra/internal/cd"
	"vinfra/internal/geo"
	"vinfra/internal/sim"
)

// TestSilentRoundMatchesReceivers holds the one-pass silent round to the
// round concluded receiver by receiver (PathReceivers) and to the reference,
// for every detector class — ◇AC before and after its accuracy round with a
// false-positive rate, Complete with and without one, AC and Null — with no
// adversary and with adversaries that force collisions: an exact detector
// (cd.Exact) must report nothing there whatever is forced, and a detector
// that is not exact must still be asked. The detectors that say they are
// exact from a round are held to saying which.
func TestSilentRoundMatchesReceivers(t *testing.T) {
	infos, _, radii := metroRound(0)
	infos = infos[:670]
	infos[7].Alive = false // a caller's own list may hold a dead receiver
	const racc = 4
	// forced says the detector reports a forced collision before its exact
	// round, noisy that it has a false-positive rate.
	detectors := []struct {
		d             cd.Detector
		exact         sim.Round
		forced, noisy bool
	}{
		{cd.AC{}, 0, false, false},
		{cd.Null{}, cd.Never, false, false},
		{cd.EventuallyAC{Racc: racc, FalsePositiveRate: 0.3}, racc, true, true},
		{cd.EventuallyAC{Racc: racc}, racc, true, false},
		{cd.Complete{}, cd.Never, true, false},
		{cd.Complete{FalsePositiveRate: 0.3}, cd.Never, true, true},
	}
	adversaries := []Adversary{nil, NewRandomLoss(0.3, 0.5, 1<<20, 5), filterAndForce{}}
	for _, det := range detectors {
		for _, adv := range adversaries {
			cfg := Config{Radii: radii, Detector: det.d, Adversary: adv, Seed: 3}
			label := fmt.Sprintf("%T%+v/%T", det.d, det.d, adv)
			fast, slow := MustMedium(cfg), Forced(cfg, PathReceivers)
			if fast.exact != det.exact {
				t.Fatalf("%s: exact from round %d, want %d", label, fast.exact, det.exact)
			}
			collisions := 0
			for r := sim.Round(0); r < 2*racc; r++ {
				want := referenceDeliver(cfg, r, nil, infos)
				got, ref := fast.Deliver(r, nil, infos), slow.Deliver(r, nil, infos)
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) || !reflect.DeepEqual(ref[i], want[i]) {
						t.Fatalf("%s round %d: receiver %d got %+v, receiver by receiver %+v, reference %+v", label, r, infos[i].ID, got[i], ref[i], want[i])
					}
					if want[i].Collision {
						collisions++
					}
				}
			}
			if loud := det.noisy || det.forced && adv != nil; loud != (collisions > 0) {
				t.Errorf("%s: %d collisions reported in the silent rounds, want some: %v", label, collisions, loud)
			}
		}
	}
}

// TestPlainRoundMatchesReceivers holds the counted round to the round
// concluded receiver by receiver (PathReceivers) and to the reference: AC
// from round 0 and ◇AC past its accuracy round, with no adversary and no
// gray zone, on the metro and city client rounds and a transmitter with
// nobody else in range, through the scan, the grid and the unforced medium.
// Every such round must be counted (no receiver concluded) and every round
// before ◇AC's accuracy round concluded. (TestDeliverMatchesReference and
// TestDeliverHostileOrigins hold the counted round to the reference on
// their inputs too.) The last leg delivers the city round through shard
// mediums built from one config, at the same time (CI runs this under
// -race).
func TestPlainRoundMatchesReceivers(t *testing.T) {
	const racc = 2
	detectors := []cd.Detector{cd.AC{}, cd.EventuallyAC{Racc: racc}}
	check := func(label string, radii geo.Radii, txs []sim.Transmission, rxs []sim.NodeInfo) {
		t.Helper()
		alive := 0
		for _, rx := range rxs {
			if rx.Alive {
				alive++
			}
		}
		for _, d := range detectors {
			cfg := Config{Radii: radii, Detector: d, Seed: 7}
			slow := Forced(cfg, PathReceivers)
			for _, mode := range []path{pathScan, pathGrid, pathAuto} {
				m := Forced(cfg, mode)
				for r := sim.Round(0); r <= racc; r++ {
					before := m.Work().Concluded
					got, ref := m.Deliver(r, txs, rxs), slow.Deliver(r, txs, rxs)
					want := referenceDeliver(cfg, r, txs, rxs)
					for i := range want {
						if !reflect.DeepEqual(got[i], want[i]) || !reflect.DeepEqual(ref[i], want[i]) {
							t.Fatalf("%s, %T, mode %d, round %d: receiver %d (index %d) got %+v, receiver by receiver %+v, reference %+v",
								label, d, mode, r, rxs[i].ID, i, got[i], ref[i], want[i])
						}
					}
					concluded := m.Work().Concluded - before
					counted := r >= m.exact
					if counted && concluded != 0 || !counted && len(txs) > 0 && concluded != alive {
						t.Fatalf("%s, %T, mode %d, round %d: %d of %d receivers concluded, want counted: %v",
							label, d, mode, r, concluded, alive, counted)
					}
				}
			}
		}
	}

	infos, txs, radii := metroRound(0)
	check("metro client round", radii, txs, infos)
	city, cityTxs, _ := metroRound(2000)
	check("city client round", radii, cityTxs, city)

	// A transmitter alone within R2 of itself, a listener alone within R1
	// of it and one in its gray zone.
	lone := []sim.NodeInfo{
		{ID: 0, At: geo.Point{}, Alive: true},
		{ID: 1, At: geo.Point{X: 5}, Alive: true},
		{ID: 2, At: geo.Point{X: -15}, Alive: true},
	}
	check("lone transmitter", geo.Radii{R1: 10, R2: 20}, []sim.Transmission{{Sender: 0, Msg: "lone"}}, lone)

	// Shard mediums: one config, the city round's receivers split into
	// four resident lists, delivered at the same time.
	cfg := Config{Radii: radii, Detector: cd.AC{}, Seed: 7}
	want := referenceDeliver(cfg, 0, cityTxs, city)
	const shards = 4
	got := make([][]sim.Reception, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var residents []sim.NodeInfo
			for i := s; i < len(city); i += shards {
				residents = append(residents, city[i])
			}
			got[s] = MustMedium(cfg).Deliver(0, cityTxs, residents)
		}()
	}
	wg.Wait()
	for s := range got {
		for k, rx := range got[s] {
			if i := s + k*shards; !reflect.DeepEqual(rx, want[i]) {
				t.Fatalf("shard %d: receiver %d got %+v, reference %+v", s, city[i].ID, rx, want[i])
			}
		}
	}
}
