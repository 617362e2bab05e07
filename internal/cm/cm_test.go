package cm

import (
	"math/rand"
	"testing"

	"vinfra/internal/geo"
	"vinfra/internal/sim"
)

type fakeEnv struct {
	id  sim.NodeID
	loc geo.Point
	rng *rand.Rand
}

func (e *fakeEnv) ID() sim.NodeID       { return e.id }
func (e *fakeEnv) Location() geo.Point  { return e.loc }
func (e *fakeEnv) Intn(n int) int       { return e.rng.Intn(n) }
func (e *fakeEnv) Float64() float64     { return e.rng.Float64() }
func (e *fakeEnv) SleepUntil(sim.Round) {}

func newEnv(id int, seed int64) *fakeEnv {
	return &fakeEnv{id: sim.NodeID(id), rng: rand.New(rand.NewSource(seed))}
}

func TestFeedbackString(t *testing.T) {
	tests := []struct {
		fb   Feedback
		want string
	}{
		{FeedbackSilence, "silence"},
		{FeedbackWon, "won"},
		{FeedbackLost, "lost"},
		{FeedbackCollision, "collision"},
		{Feedback(0), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.fb.String(); got != tt.want {
			t.Errorf("Feedback(%d).String() = %q, want %q", tt.fb, got, tt.want)
		}
	}
}

// TestFeedbackOf pins the ballot-phase classification every replica and
// emulator feeds its manager: a collision indication dominates, then a
// heard ballot is a win for a broadcaster and a loss for anyone else.
func TestFeedbackOf(t *testing.T) {
	for _, tt := range []struct {
		broadcast, heard, collision bool
		want                        Feedback
	}{
		{false, false, false, FeedbackSilence},
		{true, false, false, FeedbackSilence},
		{false, true, false, FeedbackLost},
		{true, true, false, FeedbackWon},
		{false, false, true, FeedbackCollision},
		{true, true, true, FeedbackCollision},
	} {
		if got := FeedbackOf(tt.broadcast, tt.heard, tt.collision); got != tt.want {
			t.Errorf("FeedbackOf(%v, %v, %v) = %v, want %v", tt.broadcast, tt.heard, tt.collision, got, tt.want)
		}
	}
}

func TestFixedLeaderAdvice(t *testing.T) {
	factory, setLeader := NewFixed(1)
	m0 := factory(newEnv(0, 1))
	m1 := factory(newEnv(1, 2))

	if m0.Advice() {
		t.Error("non-leader advised active")
	}
	if !m1.Advice() {
		t.Error("leader advised passive")
	}

	setLeader(0)
	if !m0.Advice() {
		t.Error("new leader advised passive after re-election")
	}
	if m1.Advice() {
		t.Error("old leader still advised active after re-election")
	}
}

// channelSim runs n Backoff managers against an idealized single-hop
// channel, one ballot per step, and returns how many were active. Crashed
// managers (alive false) are skipped.
type channelSim struct {
	mgrs  []Manager
	alive []bool
}

func newChannelSim(n int, seed int64) *channelSim {
	factory := NewBackoff()
	cs := &channelSim{
		mgrs:  make([]Manager, n),
		alive: make([]bool, n),
	}
	for i := 0; i < n; i++ {
		cs.mgrs[i] = factory(newEnv(i, seed+int64(i)*101))
		cs.alive[i] = true
	}
	return cs
}

// step simulates one ballot and returns the number of active nodes.
func (cs *channelSim) step() int {
	var active []int
	for i, m := range cs.mgrs {
		if cs.alive[i] && m.Advice() {
			active = append(active, i)
		}
	}
	for i, m := range cs.mgrs {
		if !cs.alive[i] {
			continue
		}
		var fb Feedback
		switch {
		case len(active) == 0:
			fb = FeedbackSilence
		case len(active) >= 2:
			fb = FeedbackCollision
		case active[0] == i:
			fb = FeedbackWon
		default:
			fb = FeedbackLost
		}
		m.Observe(fb)
	}
	return len(active)
}

func TestBackoffElectsSingleLeader(t *testing.T) {
	// Property 3.1/3.2: eventually exactly one node is active every ballot.
	for _, n := range []int{1, 2, 4, 8, 16} {
		cs := newChannelSim(n, 7)
		streak := 0
		stabilized := false
		for range 2000 {
			if cs.step() == 1 {
				streak++
			} else {
				streak = 0
			}
			if streak >= 100 {
				stabilized = true
				break
			}
		}
		if !stabilized {
			t.Errorf("n=%d: backoff did not stabilize to a single leader", n)
		}
	}
}

func TestBackoffReelectsAfterCrash(t *testing.T) {
	cs := newChannelSim(6, 21)
	// Let a leader emerge.
	var leader = -1
	for range 2000 {
		if cs.step() == 1 {
			// Find who won.
			for i, m := range cs.mgrs {
				if cs.alive[i] && m.(*Backoff).w == 1 && m.Advice() {
					leader = i
					break
				}
			}
			if leader >= 0 {
				break
			}
		}
	}
	if leader < 0 {
		t.Fatal("no leader emerged")
	}
	cs.alive[leader] = false

	streak := 0
	for range 5000 {
		if cs.step() == 1 {
			streak++
		} else {
			streak = 0
		}
		if streak >= 100 {
			return // re-elected
		}
	}
	t.Error("no new leader emerged after crash")
}

func TestBackoffSoloNodeIsImmediatelyActive(t *testing.T) {
	m := NewBackoff()(newEnv(0, 5))
	if !m.Advice() {
		t.Error("a lone contender with w=1 should be active immediately")
	}
}

// TestBackoffDefersAfterLoss pins the deferral's clock: the ballots the
// manager observes. After a loss it stays passive, however often it is
// consulted, until one more ballot has been observed; hearing the leader
// in that ballot re-arms the deferral, and silence ends it.
func TestBackoffDefersAfterLoss(t *testing.T) {
	m := NewBackoff()(newEnv(0, 5))
	m.Observe(FeedbackLost)
	for i := 0; i < 100; i++ {
		if m.Advice() {
			t.Fatalf("consultation %d: node active before the next ballot was observed", i)
		}
	}
	m.Observe(FeedbackLost) // the leader again
	if m.Advice() {
		t.Fatal("hearing the leader again did not re-arm the deferral")
	}
	m.Observe(FeedbackSilence)
	if !m.Advice() {
		t.Error("silence should end the deferral")
	}
}

func TestBackoffWindowDynamics(t *testing.T) {
	b := NewBackoff()(newEnv(0, 5)).(*Backoff)
	if b.w != 1 {
		t.Fatalf("initial window = %d, want 1", b.w)
	}
	b.Observe(FeedbackCollision)
	b.Observe(FeedbackCollision)
	if b.w != 4 {
		t.Errorf("after two collisions w = %d, want 4", b.w)
	}
	for i := 0; i < 4; i++ {
		b.Observe(FeedbackCollision)
	}
	if b.w != 32 {
		t.Errorf("window should cap at 32: w = %d", b.w)
	}
	b.Observe(FeedbackSilence)
	if b.w != 16 {
		t.Errorf("silence should halve: w = %d", b.w)
	}
	b.Observe(FeedbackWon)
	if b.w != 1 {
		t.Errorf("winning should reset: w = %d", b.w)
	}
}

func TestRegionalEligibility(t *testing.T) {
	loc := geo.Point{X: 100, Y: 100}
	env := newEnv(0, 9)
	m := new(Regional).Init(loc, 8, env)

	env.loc = loc // at the center
	if !m.Eligible() {
		t.Error("node at center should be eligible")
	}
	if !m.Advice() {
		t.Error("eligible solo node should be active")
	}

	env.loc = geo.Point{X: 107, Y: 100} // distance 7 < 8
	if !m.Eligible() {
		t.Error("node within margin should be eligible")
	}

	env.loc = geo.Point{X: 109, Y: 100} // distance 9 > 8
	if m.Eligible() {
		t.Error("node outside margin should be ineligible")
	}
	if m.Advice() {
		t.Error("ineligible node must never be advised active")
	}
}

func TestRegionalDegenerateMargin(t *testing.T) {
	// A zero margin (the deployment's floor when vmax*2(s+10) exceeds
	// R1/4) leaves only a node exactly at the location eligible.
	env := newEnv(0, 9)
	m := new(Regional).Init(geo.Point{}, 0, env)
	env.loc = geo.Point{}
	if !m.Eligible() {
		t.Error("node exactly at location should remain eligible")
	}
	env.loc = geo.Point{X: 0.5}
	if m.Eligible() {
		t.Error("node off-center should be ineligible with a zero margin")
	}
}

func TestRegionalObserveForwardsToBackoff(t *testing.T) {
	env := newEnv(0, 9)
	m := new(Regional).Init(geo.Point{}, 100, env)
	m.Observe(FeedbackCollision)
	if m.b.w != 2 {
		t.Errorf("regional manager did not forward feedback: w = %d", m.b.w)
	}
}
