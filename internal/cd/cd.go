// Package cd implements the collision detector classes of Section 2 of the
// paper (following Chockler et al., "Consensus and collision detectors in
// radio networks"). A detector observes, per receiver per round, whether a
// message broadcast within broadcast radius R1 was lost (the completeness
// trigger, Property 1) and whether a message broadcast within interference
// radius R2 was lost (the accuracy bound, Property 2), and emits the ±
// collision notification.
package cd

import (
	"math"

	"vinfra/internal/sim"
)

// Detector decides the ± collision indication for one receiver in one
// round.
//
//   - lostR1: some message broadcast within R1 of the receiver was not
//     delivered. Property 1 (completeness) requires reporting ± whenever
//     this holds.
//   - lostR2: some message broadcast within R2 of the receiver was not
//     delivered. Property 2 (eventual accuracy) requires that, from round
//     r_acc onward, ± is reported only if this holds.
//   - spurious: the adversary requests a false positive this round
//     (detectors that are eventually accurate must suppress it from their
//     accuracy round onward).
//   - rnd: a deterministic uniform [0,1) source for randomized noise.
type Detector interface {
	Report(r sim.Round, lostR1, lostR2, spurious bool, rnd func() float64) bool
}

// Never is a round beyond any simulated horizon, used as an accuracy round
// for detectors that never become accurate.
const Never = sim.Round(math.MaxInt)

// Exact is the property a medium reads to count a round rather than
// conclude it receiver by receiver: from round ExactFrom on, the detector's
// Report is exactly lostR2 — ± iff a message broadcast within R2 was lost —
// whatever the adversary forces, and it draws nothing from rnd. (Report may
// read lostR1 too: R1 <= R2, so a loss within R1 is a loss within R2, and
// lostR1 || lostR2 is lostR2.) A detector that implements it must keep it
// true of Report; one that does not is asked receiver by receiver in every
// round. Nobody loses anything in a round nobody transmits in, so from
// ExactFrom on such a round reports nothing anywhere.
type Exact interface {
	ExactFrom() sim.Round
}

// AC is a complete and (always) accurate collision detector: it reports ±
// exactly when a message broadcast within R2 was lost. Since R1 <= R2,
// losing an R1 message implies losing an R2 message, so AC is complete.
type AC struct{}

// Report implements Detector.
func (AC) Report(_ sim.Round, lostR1, lostR2, _ bool, _ func() float64) bool {
	return lostR1 || lostR2
}

// ExactFrom implements Exact: AC reports exactly the losses, from the
// start.
func (AC) ExactFrom() sim.Round { return 0 }

// EventuallyAC is the class 3A-C detector assumed by the paper: complete in
// every round, and accurate from round Racc onward. Before Racc it emits a
// false positive whenever the adversary forces one, plus independently with
// probability FalsePositiveRate per round.
type EventuallyAC struct {
	Racc              sim.Round
	FalsePositiveRate float64
}

// Report implements Detector.
func (d EventuallyAC) Report(r sim.Round, lostR1, lostR2, spurious bool, rnd func() float64) bool {
	if lostR1 || lostR2 {
		// Completeness (and accurate positives).
		return true
	}
	if r < d.Racc {
		if spurious {
			return true
		}
		if d.FalsePositiveRate > 0 && rnd() < d.FalsePositiveRate {
			return true
		}
	}
	return false
}

// ExactFrom implements Exact: from Racc on, EventuallyAC reports exactly
// the losses — no forced or random false positive, and no draw.
func (d EventuallyAC) ExactFrom() sim.Round { return d.Racc }

// Complete is complete but never accurate: false positives (forced or
// randomized) persist forever. It is the 0-accuracy end of the ablation in
// experiment E8; the paper's liveness proof requires eventual accuracy, so
// CHAP over Complete should never stabilize to all-green.
type Complete struct {
	FalsePositiveRate float64
}

// Report implements Detector. Complete is not Exact: a forced or random
// false positive can come in any round.
func (d Complete) Report(_ sim.Round, lostR1, lostR2, spurious bool, rnd func() float64) bool {
	if lostR1 || lostR2 || spurious {
		return true
	}
	return d.FalsePositiveRate > 0 && rnd() < d.FalsePositiveRate
}

// Null reports nothing, ever. It violates completeness (Property 1); the
// paper (citing [7,8]) argues consensus is impossible without collision
// detection, and experiment E8 uses Null to demonstrate the resulting
// agreement violations.
type Null struct{}

// Report implements Detector. Null is not Exact: it stays silent over a
// loss, so a medium asks it receiver by receiver, silent rounds included.
func (Null) Report(_ sim.Round, _, _, _ bool, _ func() float64) bool {
	return false
}
