package radio

import (
	"fmt"
	"reflect"
	"testing"

	"vinfra/internal/cd"
	"vinfra/internal/sim"
)

// TestSilentRoundMatchesReceivers holds the one-pass silent round to the
// round concluded receiver by receiver (PathReceivers) and to the reference,
// for every detector class — ◇AC before and after its accuracy round with a
// false-positive rate, Complete with and without one, AC and Null — with no
// adversary and with adversaries that force collisions: a quiet detector
// (cd.Quiet) must report nothing there whatever is forced, and a detector
// that is not quiet must still be asked. The detectors that say they are
// quiet from a round are held to saying which.
func TestSilentRoundMatchesReceivers(t *testing.T) {
	infos, _, radii := metroRound(0)
	infos = infos[:670]
	infos[7].Alive = false // a caller's own list may hold a dead receiver
	const racc = 4
	// forced says the detector reports a forced collision before its quiet
	// round, noisy that it has a false-positive rate.
	detectors := []struct {
		d             cd.Detector
		quiet         sim.Round
		forced, noisy bool
	}{
		{cd.AC{}, 0, false, false},
		{cd.Null{}, 0, false, false},
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
			if fast.quiet != det.quiet {
				t.Fatalf("%s: quiet from round %d, want %d", label, fast.quiet, det.quiet)
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
