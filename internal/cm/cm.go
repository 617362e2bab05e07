// Package cm implements the contention managers of Section 2. A contention
// manager advises each contending node whether to be active (broadcast) or
// passive in a round; the leader-election guarantee (Property 3) says that
// eventually at most one node is advised to be active in every round, and
// that if a correct node contends forever, eventually some correct node is
// advised active in every round.
//
// The paper deliberately decouples contention management from the agreement
// protocol — "the problem of designing efficient back-off protocols ... is
// not the focus of this paper; we believe even a simple exponential
// back-off scheme to be sufficient" — so this package provides exactly
// that: a randomized exponential backoff manager (Backoff), an idealized
// oracle (Fixed) for controlled experiments, and the regional manager used
// by the virtual infrastructure emulation (Regional, Section 4.2).
package cm

import (
	"vinfra/internal/geo"
	"vinfra/internal/sim"
)

// Feedback tells a node's contention manager what the node perceived on
// the channel in a round in which it contended.
type Feedback int

// Feedback values.
const (
	// FeedbackSilence: nothing was received and no collision indicated.
	FeedbackSilence Feedback = iota + 1
	// FeedbackWon: this node broadcast and observed no collision.
	FeedbackWon
	// FeedbackLost: another node's message was received cleanly, so a
	// competing leader exists.
	FeedbackLost
	// FeedbackCollision: the collision detector reported ±.
	FeedbackCollision
)

// String implements fmt.Stringer.
func (f Feedback) String() string {
	switch f {
	case FeedbackSilence:
		return "silence"
	case FeedbackWon:
		return "won"
	case FeedbackLost:
		return "lost"
	case FeedbackCollision:
		return "collision"
	default:
		return "unknown"
	}
}

// FeedbackOf classifies a ballot-phase reception for the contention
// manager: collisions dominate; hearing a ballot after broadcasting one is
// a win; hearing a ballot without broadcasting is a loss; nothing is
// silence.
func FeedbackOf(broadcast, heard, collision bool) Feedback {
	switch {
	case collision:
		return FeedbackCollision
	case broadcast && heard:
		return FeedbackWon
	case heard:
		return FeedbackLost
	default:
		return FeedbackSilence
	}
}

// Manager is a per-node contention manager instance (the cm-wakeup() input
// of Figure 1). Advice corresponds to contending for the round and reading
// the manager's advice; Observe closes the loop with channel feedback.
type Manager interface {
	// Advice reports whether the node should broadcast in round r.
	Advice(r sim.Round) bool
	// Observe feeds back the channel outcome of round r.
	Observe(r sim.Round, fb Feedback)
}

// Factory builds a Manager for one node, given its engine environment
// (identity, location, deterministic randomness).
type Factory func(env sim.Env) Manager

// Fixed is an oracle manager: the node whose ID matches Leader is always
// active; everyone else is always passive. It trivially satisfies
// Property 3 from round 0 and gives the protocols their best case, which
// is what the overhead measurements of Theorem 14 call for. The Leader
// pointer is shared so tests can re-elect after a crash.
type Fixed struct {
	leader *sim.NodeID
	env    sim.Env
}

// NewFixed returns a factory of oracle managers sharing the election state,
// plus a setter to change the leader (e.g., after crashing it in a test).
func NewFixed(initial sim.NodeID) (Factory, func(sim.NodeID)) {
	leader := initial
	factory := func(env sim.Env) Manager {
		return &Fixed{leader: &leader, env: env}
	}
	set := func(id sim.NodeID) { leader = id }
	return factory, set
}

// Advice implements Manager.
func (f *Fixed) Advice(sim.Round) bool { return f.env.ID() == *f.leader }

// Observe implements Manager.
func (f *Fixed) Observe(sim.Round, Feedback) {}

// BackoffConfig parameterizes the randomized exponential backoff manager.
// The zero value selects the defaults.
type BackoffConfig struct {
	// WMax caps the contention window. Default 32.
	WMax int
	// DeferRounds is how many rounds a node stays passive after hearing a
	// competing leader win the channel. Default 24.
	DeferRounds int
}

func (c BackoffConfig) withDefaults() BackoffConfig {
	if c.WMax <= 0 {
		c.WMax = 32
	}
	if c.DeferRounds <= 0 {
		c.DeferRounds = 24
	}
	return c
}

// Backoff is a randomized exponential backoff leader election: each node
// broadcasts with probability 1/w; collisions double w, silence halves it,
// winning resets it to 1, and losing (hearing another leader) defers for a
// fixed period. Once one node wins, it stays active every round while all
// others defer — satisfying Property 3 for as long as the leader survives,
// and re-electing when it crashes (the deferral expires in silence).
type Backoff struct {
	cfg        BackoffConfig
	env        sim.Env
	w          int
	deferUntil sim.Round
}

// NewBackoff returns a Factory building independent Backoff managers.
func NewBackoff(cfg BackoffConfig) Factory {
	cfg = cfg.withDefaults()
	return func(env sim.Env) Manager {
		return &Backoff{cfg: cfg, env: env, w: 1}
	}
}

// Advice implements Manager.
func (b *Backoff) Advice(r sim.Round) bool {
	if r < b.deferUntil {
		return false
	}
	if b.w <= 1 {
		return true
	}
	return b.env.Intn(b.w) == 0
}

// Observe implements Manager.
func (b *Backoff) Observe(r sim.Round, fb Feedback) {
	switch fb {
	case FeedbackWon:
		b.w = 1
	case FeedbackLost:
		b.deferUntil = r + sim.Round(b.cfg.DeferRounds)
	case FeedbackCollision:
		b.w *= 2
		if b.w > b.cfg.WMax {
			b.w = b.cfg.WMax
		}
	case FeedbackSilence:
		b.w /= 2
		if b.w < 1 {
			b.w = 1
		}
	}
}

// RegionalConfig parameterizes the regional contention manager of
// Section 4.2, which elects "temporary leaders" that remain within
// distance R1/4 of the virtual node location for 2(s+10) rounds.
type RegionalConfig struct {
	// Location is the virtual node location l the manager serves.
	Location geo.Point
	// Radius is the leader-eligibility region (R1/4 in the paper).
	Radius float64
	// VMax bounds node speed; eligibility shrinks by VMax*Horizon so an
	// elected leader cannot exit the region before the horizon elapses.
	VMax float64
	// Horizon is the number of rounds a temporary leader must remain in
	// the region (2(s+10) in the paper).
	Horizon int
	// Backoff tunes the underlying randomized election.
	Backoff BackoffConfig
}

// Regional combines eligibility-by-location with exponential backoff: a
// node only competes while it sits deep enough inside the region that its
// bounded speed cannot carry it out within the horizon.
type Regional struct {
	cfg RegionalConfig
	env sim.Env
	b   *Backoff
}

// NewRegional returns a Factory of regional managers for one virtual node
// location.
func NewRegional(cfg RegionalConfig) Factory {
	cfg.Backoff = cfg.Backoff.withDefaults()
	return func(env sim.Env) Manager {
		return &Regional{
			cfg: cfg,
			env: env,
			b:   &Backoff{cfg: cfg.Backoff, env: env, w: 1},
		}
	}
}

// Eligible reports whether the node is currently allowed to compete:
// within the shrunken region Radius - VMax*Horizon of the location.
func (m *Regional) Eligible() bool {
	margin := m.cfg.Radius - m.cfg.VMax*float64(m.cfg.Horizon)
	if margin < 0 {
		margin = 0
	}
	return m.env.Location().Within(m.cfg.Location, margin)
}

// Advice implements Manager.
func (m *Regional) Advice(r sim.Round) bool {
	if !m.Eligible() {
		return false
	}
	return m.b.Advice(r)
}

// Observe implements Manager.
func (m *Regional) Observe(r sim.Round, fb Feedback) {
	m.b.Observe(r, fb)
}
