package cm

import (
	"reflect"
	"testing"

	"vinfra/internal/geo"
	"vinfra/internal/sim"
)

// probeEnv is a sim.Env that scripts Intn's return value and records every
// window it is asked to draw from — the contention window w is unexported,
// but the spec fixes exactly which Intn(w) calls a Backoff manager makes,
// so the recorded arguments ARE the window trajectory.
type probeEnv struct {
	id       sim.NodeID
	loc      geo.Point
	intnArgs []int
	intnRet  int
}

func (e *probeEnv) ID() sim.NodeID       { return e.id }
func (e *probeEnv) Location() geo.Point  { return e.loc }
func (e *probeEnv) Float64() float64     { return 0 }
func (e *probeEnv) SleepUntil(sim.Round) {}
func (e *probeEnv) Intn(n int) int {
	e.intnArgs = append(e.intnArgs, n)
	return e.intnRet
}

// TestBackoffWindowTrajectoryUnderJamming drives a Backoff manager with
// the feedback a jammed channel produces — a burst of forced collisions,
// then silence — and asserts the exact window trajectory the model
// specifies: doubling per collision up to WMax, halving per silence down
// to 1, with w = 1 advising active unconditionally (no draw at all).
func TestBackoffWindowTrajectoryUnderJamming(t *testing.T) {
	env := &probeEnv{intnRet: 1} // never win a draw: trajectory stays pure
	m := NewBackoff(BackoffConfig{WMax: 8, DeferRounds: 4})(env)

	// Fresh manager: w = 1, active without drawing.
	if !m.Advice(0) {
		t.Fatal("fresh manager must advise active")
	}
	if len(env.intnArgs) != 0 {
		t.Fatalf("w=1 advice drew from %v", env.intnArgs)
	}

	// Four jammed rounds: w doubles 2, 4, 8 and caps at WMax=8.
	// Then four silent rounds: w halves 4, 2, 1, floors at 1.
	feedback := []Feedback{
		FeedbackCollision, FeedbackCollision, FeedbackCollision, FeedbackCollision,
		FeedbackSilence, FeedbackSilence, FeedbackSilence, FeedbackSilence,
	}
	for i, fb := range feedback {
		m.Observe(sim.Round(i), fb)
		m.Advice(sim.Round(i + 1))
	}
	// Draws happen only while w > 1.
	want := []int{2, 4, 8, 8, 4, 2}
	if !reflect.DeepEqual(env.intnArgs, want) {
		t.Errorf("window trajectory (Intn args) = %v, want %v", env.intnArgs, want)
	}
	// After the halvings, w is back to 1: active with no further draws.
	n := len(env.intnArgs)
	if !m.Advice(100) || len(env.intnArgs) != n {
		t.Error("recovered manager (w=1) must advise active without drawing")
	}
}

// TestBackoffWinAndLossRules pins the other two feedback rules exactly:
// winning resets the window to 1 in one step, and losing (hearing a
// competing leader) defers for precisely DeferRounds rounds with no draws
// at all.
func TestBackoffWinAndLossRules(t *testing.T) {
	env := &probeEnv{intnRet: 1}
	m := NewBackoff(BackoffConfig{WMax: 32, DeferRounds: 6})(env)

	// Blow the window up to 8, then win once: w must snap back to 1.
	for i := 0; i < 3; i++ {
		m.Observe(sim.Round(i), FeedbackCollision)
	}
	m.Observe(3, FeedbackWon)
	if !m.Advice(4) || len(env.intnArgs) != 0 {
		t.Fatalf("after a win w must be 1 (active, no draw); drew %v", env.intnArgs)
	}

	// Losing at round 10 defers rounds 10..15 and resumes at 16.
	m.Observe(10, FeedbackLost)
	for r := sim.Round(10); r < 16; r++ {
		if m.Advice(r) {
			t.Errorf("round %d: advised active during deferral", r)
		}
	}
	if len(env.intnArgs) != 0 {
		t.Errorf("deferral drew from %v", env.intnArgs)
	}
	if !m.Advice(16) {
		t.Error("round 16: deferral expired, w=1 must advise active")
	}
}

// TestRegionalEligibilityUnderHerding pins the regional manager's
// eligibility rule under adversarial mobility: a node dragged toward the
// region edge (the faults.Herd scenario) must stop competing as soon as
// its bounded speed could carry it out of the region within the leader
// horizon — even though its backoff state would advise active.
func TestRegionalEligibilityUnderHerding(t *testing.T) {
	env := &probeEnv{intnRet: 0} // always win draws: only eligibility gates
	m := NewRegional(RegionalConfig{
		Location: geo.Point{},
		Radius:   2.5,
		VMax:     0.1,
		Horizon:  10, // margin = 2.5 - 0.1*10 = 1.5
	})(env).(*Regional)

	for _, tc := range []struct {
		x    float64
		want bool
	}{
		{0, true},
		{1.49, true},
		{1.5, true}, // Within is inclusive
		{1.51, false},
		{2.4, false}, // inside the region but too close to the edge
		{3.0, false},
	} {
		env.loc = geo.Point{X: tc.x}
		if got := m.Advice(0); got != tc.want {
			t.Errorf("x=%v: advice = %v, want %v", tc.x, got, tc.want)
		}
		if got := m.Eligible(); got != tc.want {
			t.Errorf("x=%v: eligible = %v, want %v", tc.x, got, tc.want)
		}
	}
}
