package cd

import (
	"math/rand"
	"testing"
	"testing/quick"

	"vinfra/internal/sim"
)

func fixed(v float64) func() float64 {
	return func() float64 { return v }
}

func TestACCompleteness(t *testing.T) {
	d := AC{}
	if !d.Report(0, true, true, false, fixed(0)) {
		t.Error("AC must report when an R1 message is lost")
	}
	if !d.Report(0, false, true, false, fixed(0)) {
		t.Error("AC must report when an R2 message is lost")
	}
	if d.Report(0, false, false, true, fixed(0)) {
		t.Error("AC must ignore forced false positives")
	}
	if d.Report(1000, false, false, false, fixed(0)) {
		t.Error("AC reported with no loss")
	}
}

func TestEventuallyACCompleteness(t *testing.T) {
	// Completeness must hold in every round, before and after Racc.
	d := EventuallyAC{Racc: 100}
	for _, r := range []sim.Round{0, 50, 99, 100, 101, 1 << 30} {
		if !d.Report(r, true, true, false, fixed(1)) {
			t.Errorf("round %d: completeness violated", r)
		}
	}
}

func TestEventuallyACAccuracy(t *testing.T) {
	d := EventuallyAC{Racc: 100, FalsePositiveRate: 1.0}
	// Before Racc: false positives allowed (forced or randomized).
	if !d.Report(99, false, false, true, fixed(1)) {
		t.Error("forced false positive before Racc should be reported")
	}
	if !d.Report(99, false, false, false, fixed(0)) {
		t.Error("randomized false positive before Racc should fire at rate 1")
	}
	// From Racc on: no false positives of either kind.
	if d.Report(100, false, false, true, fixed(0)) {
		t.Error("forced false positive at Racc must be suppressed")
	}
	if d.Report(100, false, false, false, fixed(0)) {
		t.Error("randomized false positive at Racc must be suppressed")
	}
	// Accurate positives (R2 loss) are always allowed.
	if !d.Report(100, false, true, false, fixed(1)) {
		t.Error("R2 loss after Racc should be reported")
	}
}

func TestEventuallyACZeroRateNoRandCall(t *testing.T) {
	d := EventuallyAC{Racc: 100, FalsePositiveRate: 0}
	called := false
	rnd := func() float64 { called = true; return 0 }
	if d.Report(0, false, false, false, rnd) {
		t.Error("zero-rate detector reported spuriously")
	}
	if called {
		t.Error("zero-rate detector consumed randomness")
	}
}

func TestCompleteNeverAccurate(t *testing.T) {
	d := Complete{}
	if !d.Report(1<<40, false, false, true, fixed(1)) {
		t.Error("Complete must honor forced false positives forever")
	}
	if !d.Report(0, true, true, false, fixed(1)) {
		t.Error("Complete must be complete")
	}
	if d.Report(0, false, false, false, fixed(1)) {
		t.Error("Complete with zero rate and no force should stay silent")
	}
	noisy := Complete{FalsePositiveRate: 1}
	if !noisy.Report(1<<40, false, false, false, fixed(0)) {
		t.Error("noisy Complete should fire forever")
	}
}

func TestNullNeverReports(t *testing.T) {
	d := Null{}
	if d.Report(0, true, true, true, fixed(0)) {
		t.Error("Null must never report")
	}
}

// Property: every detector except Null is complete — lostR1 implies a
// report, in any round, with any randomness.
func TestCompletenessProperty(t *testing.T) {
	dets := []Detector{AC{}, EventuallyAC{Racc: 17, FalsePositiveRate: 0.5}, Complete{FalsePositiveRate: 0.3}}
	rng := rand.New(rand.NewSource(7))
	f := func(round uint16, lostR2, spurious bool) bool {
		for _, d := range dets {
			if !d.Report(sim.Round(round), true, lostR2 || true, spurious, rng.Float64) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: eventually-accurate detectors never report without an R2 loss
// once past Racc.
func TestEventualAccuracyProperty(t *testing.T) {
	d := EventuallyAC{Racc: 50, FalsePositiveRate: 1}
	rng := rand.New(rand.NewSource(11))
	f := func(after uint16, spurious bool) bool {
		r := sim.Round(50 + int(after))
		return !d.Report(r, false, false, spurious, rng.Float64)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestExactDetectorsReportLostR2 holds every detector to what it says of
// cd.Exact: from ExactFrom on, Report is lostR2 for every pair a medium can
// hand it (lostR1 implies lostR2), forced or not, and draws nothing; before
// it, and for a detector that does not say, some input tells Report apart
// from lostR2.
func TestExactDetectorsReportLostR2(t *testing.T) {
	const racc = 3
	for _, c := range []struct {
		d     Detector
		exact sim.Round // Never: does not implement Exact
	}{
		{AC{}, 0},
		{EventuallyAC{Racc: racc, FalsePositiveRate: 0.5}, racc},
		{EventuallyAC{Racc: racc}, racc},
		{Complete{}, Never},
		{Complete{FalsePositiveRate: 0.5}, Never},
		{Null{}, Never},
	} {
		exact := Never
		if x, ok := c.d.(Exact); ok {
			exact = x.ExactFrom()
		}
		if exact != c.exact {
			t.Fatalf("%T%+v: exact from round %d, want %d", c.d, c.d, exact, c.exact)
		}
		for r := sim.Round(0); r < 2*racc; r++ {
			differs := false
			for _, in := range [][2]bool{{false, false}, {false, true}, {true, true}} {
				for _, spurious := range []bool{false, true} {
					drew := false
					rnd := func() float64 { drew = true; return 0 }
					got := c.d.Report(r, in[0], in[1], spurious, rnd)
					if r >= exact && (got != in[1] || drew) {
						t.Fatalf("%T%+v round %d (exact from %d): Report(lostR1 %v, lostR2 %v, spurious %v) = %v, drew %v; want %v and no draw",
							c.d, c.d, r, exact, in[0], in[1], spurious, got, drew, in[1])
					}
					differs = differs || got != in[1]
				}
			}
			if r < exact && !differs {
				t.Errorf("%T%+v round %d: Report is lostR2 on every input, yet not exact before round %d", c.d, c.d, r, exact)
			}
		}
	}
}
