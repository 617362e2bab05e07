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

func TestFixedLeaderAdvice(t *testing.T) {
	factory, setLeader := NewFixed(1)
	m0 := factory(newEnv(0, 1))
	m1 := factory(newEnv(1, 2))

	if m0.Advice(0) {
		t.Error("non-leader advised active")
	}
	if !m1.Advice(0) {
		t.Error("leader advised passive")
	}

	setLeader(0)
	if !m0.Advice(1) {
		t.Error("new leader advised passive after re-election")
	}
	if m1.Advice(1) {
		t.Error("old leader still advised active after re-election")
	}
}

// channelSim runs n Backoff managers against an idealized single-hop
// channel and returns, per round, how many were active. Crashed managers
// (index < 0 in aliveFrom semantics) are skipped.
type channelSim struct {
	mgrs  []Manager
	alive []bool
}

func newChannelSim(n int, cfg BackoffConfig, seed int64) *channelSim {
	factory := NewBackoff(cfg)
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

// step simulates one round and returns the number of active nodes.
func (cs *channelSim) step(r sim.Round) int {
	var active []int
	for i, m := range cs.mgrs {
		if cs.alive[i] && m.Advice(r) {
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
		m.Observe(r, fb)
	}
	return len(active)
}

func TestBackoffElectsSingleLeader(t *testing.T) {
	// Property 3.1/3.2: eventually exactly one node is active every round.
	for _, n := range []int{1, 2, 4, 8, 16} {
		cs := newChannelSim(n, BackoffConfig{}, 7)
		streak := 0
		stabilized := false
		for r := sim.Round(0); r < 2000; r++ {
			if cs.step(r) == 1 {
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
	cs := newChannelSim(6, BackoffConfig{}, 21)
	// Let a leader emerge.
	var leader = -1
	for r := sim.Round(0); r < 2000; r++ {
		if cs.step(r) == 1 {
			// Find who won.
			for i, m := range cs.mgrs {
				if cs.alive[i] && m.(*Backoff).w == 1 && m.Advice(r+1) {
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
	for r := sim.Round(3000); r < 8000; r++ {
		if cs.step(r) == 1 {
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
	m := NewBackoff(BackoffConfig{})(newEnv(0, 5))
	if !m.Advice(0) {
		t.Error("a lone contender with w=1 should be active immediately")
	}
}

func TestBackoffDefersAfterLoss(t *testing.T) {
	cfg := BackoffConfig{DeferRounds: 10}
	m := NewBackoff(cfg)(newEnv(0, 5))
	m.Observe(5, FeedbackLost)
	for r := sim.Round(6); r < 15; r++ {
		if m.Advice(r) {
			t.Fatalf("round %d: node active during deferral", r)
		}
	}
	if !m.Advice(15) {
		t.Error("deferral should expire at round 15")
	}
}

func TestBackoffWindowDynamics(t *testing.T) {
	cfg := BackoffConfig{WMax: 8}
	b := NewBackoff(cfg)(newEnv(0, 5)).(*Backoff)
	if b.w != 1 {
		t.Fatalf("initial window = %d, want 1", b.w)
	}
	b.Observe(0, FeedbackCollision)
	b.Observe(1, FeedbackCollision)
	if b.w != 4 {
		t.Errorf("after two collisions w = %d, want 4", b.w)
	}
	b.Observe(2, FeedbackCollision)
	b.Observe(3, FeedbackCollision)
	if b.w != 8 {
		t.Errorf("window should cap at WMax: w = %d", b.w)
	}
	b.Observe(4, FeedbackSilence)
	if b.w != 4 {
		t.Errorf("silence should halve: w = %d", b.w)
	}
	b.Observe(5, FeedbackWon)
	if b.w != 1 {
		t.Errorf("winning should reset: w = %d", b.w)
	}
}

func TestRegionalEligibility(t *testing.T) {
	loc := geo.Point{X: 100, Y: 100}
	cfg := RegionalConfig{
		Location: loc,
		Radius:   10,
		VMax:     0.1,
		Horizon:  20, // margin = 10 - 2 = 8
	}
	factory := NewRegional(cfg)

	env := newEnv(0, 9)
	m := factory(env).(*Regional)

	env.loc = loc // at the center
	if !m.Eligible() {
		t.Error("node at center should be eligible")
	}
	if !m.Advice(0) {
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
	if m.Advice(1) {
		t.Error("ineligible node must never be advised active")
	}
}

func TestRegionalDegenerateMargin(t *testing.T) {
	// When VMax*Horizon exceeds the radius, only a node exactly at the
	// location is eligible.
	cfg := RegionalConfig{Location: geo.Point{}, Radius: 1, VMax: 1, Horizon: 10}
	env := newEnv(0, 9)
	m := NewRegional(cfg)(env).(*Regional)
	env.loc = geo.Point{}
	if !m.Eligible() {
		t.Error("node exactly at location should remain eligible")
	}
	env.loc = geo.Point{X: 0.5}
	if m.Eligible() {
		t.Error("node off-center should be ineligible with degenerate margin")
	}
}

func TestRegionalObserveForwardsToBackoff(t *testing.T) {
	cfg := RegionalConfig{Location: geo.Point{}, Radius: 100, Backoff: BackoffConfig{WMax: 8}}
	env := newEnv(0, 9)
	m := NewRegional(cfg)(env).(*Regional)
	m.Observe(0, FeedbackCollision)
	if m.b.w != 2 {
		t.Errorf("regional manager did not forward feedback: w = %d", m.b.w)
	}
}
