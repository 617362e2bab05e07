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
// specifies: doubling per collision up to the cap of 32, halving per
// silence down to 1, with w = 1 advising active unconditionally (no draw
// at all).
func TestBackoffWindowTrajectoryUnderJamming(t *testing.T) {
	env := &probeEnv{intnRet: 1} // never win a draw: trajectory stays pure
	m := NewBackoff()(env)

	// Fresh manager: w = 1, active without drawing.
	if !m.Advice() {
		t.Fatal("fresh manager must advise active")
	}
	if len(env.intnArgs) != 0 {
		t.Fatalf("w=1 advice drew from %v", env.intnArgs)
	}

	// Six jammed ballots: w doubles 2, 4, 8, 16, 32 and caps at 32.
	// Then five silent ballots: w halves 16, 8, 4, 2, 1.
	feedback := []Feedback{
		FeedbackCollision, FeedbackCollision, FeedbackCollision,
		FeedbackCollision, FeedbackCollision, FeedbackCollision,
		FeedbackSilence, FeedbackSilence, FeedbackSilence, FeedbackSilence, FeedbackSilence,
	}
	for _, fb := range feedback {
		m.Observe(fb)
		m.Advice()
	}
	// Draws happen only while w > 1.
	want := []int{2, 4, 8, 16, 32, 32, 16, 8, 4, 2}
	if !reflect.DeepEqual(env.intnArgs, want) {
		t.Errorf("window trajectory (Intn args) = %v, want %v", env.intnArgs, want)
	}
	// After the halvings, w is back to 1: active with no further draws.
	n := len(env.intnArgs)
	if !m.Advice() || len(env.intnArgs) != n {
		t.Error("recovered manager (w=1) must advise active without drawing")
	}
}

// TestBackoffWinAndLossRules pins the other two feedback rules exactly:
// winning resets the window to 1 in one step, and losing (hearing a
// competing leader) makes the manager sit out exactly the next ballot —
// every consultation before that ballot's feedback, with no draws at all.
func TestBackoffWinAndLossRules(t *testing.T) {
	env := &probeEnv{intnRet: 1}
	m := NewBackoff()(env)

	// Blow the window up to 8, then win once: w must snap back to 1.
	for i := 0; i < 3; i++ {
		m.Observe(FeedbackCollision)
	}
	m.Observe(FeedbackWon)
	if !m.Advice() || len(env.intnArgs) != 0 {
		t.Fatalf("after a win w must be 1 (active, no draw); drew %v", env.intnArgs)
	}

	// A loss defers the next ballot, however often it is consulted (an
	// emulator reads its advice in the vn, ballot and join-ack phases).
	m.Observe(FeedbackLost)
	for i := 0; i < 3; i++ {
		if m.Advice() {
			t.Errorf("consultation %d: advised active during deferral", i)
		}
	}
	if len(env.intnArgs) != 0 {
		t.Errorf("deferral drew from %v", env.intnArgs)
	}
	// The deferred ballot collided (the loser did not hear the leader
	// cleanly): the deferral is spent and the window doubles.
	m.Observe(FeedbackCollision)
	if m.Advice() || !reflect.DeepEqual(env.intnArgs, []int{2}) {
		t.Errorf("after the deferred ballot: want one draw from w=2 (lost), drew %v", env.intnArgs)
	}
	m.Observe(FeedbackSilence)
	if !m.Advice() {
		t.Error("silence after the deferral: w=1 must advise active")
	}
}

// TestRegionalEligibilityUnderHerding pins the regional manager's
// eligibility rule under adversarial mobility: a node dragged toward the
// region edge (the faults.Herd scenario) must stop competing as soon as
// it leaves the margin its bounded speed allows — even though its backoff
// state would advise active.
func TestRegionalEligibilityUnderHerding(t *testing.T) {
	env := &probeEnv{intnRet: 0}                   // always win draws: only eligibility gates
	m := new(Regional).Init(geo.Point{}, 1.5, env) // R1/4 = 2.5, vmax*horizon = 1

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
		if got := m.Advice(); got != tc.want {
			t.Errorf("x=%v: advice = %v, want %v", tc.x, got, tc.want)
		}
		if got := m.Eligible(); got != tc.want {
			t.Errorf("x=%v: eligible = %v, want %v", tc.x, got, tc.want)
		}
	}
}
