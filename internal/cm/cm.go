// Package cm implements the contention managers of Section 2. A contention
// manager advises each contending node whether to be active (broadcast) or
// passive in a ballot; the leader-election guarantee (Property 3) says that
// eventually at most one node is advised to be active in every ballot, and
// that if a correct node contends forever, eventually some correct node is
// advised active in every ballot. A manager keeps no clock of its own: it
// counts the ballots its caller consults it for and closes with feedback,
// whether they come every 3 radio rounds (a CHA cluster) or every s+12 (a
// virtual round).
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
// of Figure 1). Its one clock is its caller's ballots: Advice is read when
// the node contends for a ballot (and may be read again before the ballot's
// feedback), and Observe closes the ballot with its channel feedback.
type Manager interface {
	// Advice reports whether the node should broadcast in the ballot at
	// hand.
	Advice() bool
	// Observe feeds back the channel outcome of the ballot.
	Observe(fb Feedback)
}

// Factory builds a Manager for one node, given its engine environment
// (identity, location, deterministic randomness).
type Factory func(env sim.Env) Manager

// Fixed is an oracle manager: the node whose ID its leader cell holds is
// always active; everyone else is always passive. It trivially satisfies
// Property 3 from round 0 and gives the protocols their best case, which
// is what the overhead measurements of Theorem 14 call for. The cell is
// read at every ballot and shared by every manager of one election, so
// writing it re-elects (after crashing the leader, say): NewFixed's factory
// keeps one, and a virtual infrastructure keeps one per virtual node in a
// single leader table (vi.DeploymentConfig.Leaders).
type Fixed struct {
	leader *sim.NodeID
	env    sim.Env
}

// NewFixed returns a factory of oracle managers sharing one leader cell,
// plus a setter to change the leader (e.g., after crashing it in a test).
func NewFixed(initial sim.NodeID) (Factory, func(sim.NodeID)) {
	leader := initial
	factory := func(env sim.Env) Manager {
		return new(Fixed).Init(&leader, env)
	}
	set := func(id sim.NodeID) { leader = id }
	return factory, set
}

// Init makes f the oracle manager of the node env runs, reading its leader
// from *leader, and returns f: how a caller that lays managers out in
// storage of its own (vi.Deployment carves them from one array) builds one.
// It sets the fields one by one, so f need not be zero.
func (f *Fixed) Init(leader *sim.NodeID, env sim.Env) *Fixed {
	f.leader = leader
	f.env = env
	return f
}

// Advice implements Manager.
func (f *Fixed) Advice() bool { return f.env.ID() == *f.leader }

// Observe implements Manager.
func (f *Fixed) Observe(Feedback) {}

// wMax caps the backoff contention window.
const wMax = 32

// deferBallots is how many ballots a node sits out after hearing a
// competing leader win the channel (K): one, so a loser stays passive
// exactly as long as it keeps hearing the leader. Counted in ballots, not
// rounds, because the ballot is the only clock every caller shares.
const deferBallots = 1

// Backoff is a randomized exponential backoff leader election: each node
// broadcasts with probability 1/w; collisions double w (up to 32), silence
// halves it, winning resets it to 1, and losing (hearing another leader)
// makes the node sit out the next ballot. Hearing the leader again re-arms
// the deferral and silence ends it. Once one node wins, it stays active in
// every ballot while all others defer — satisfying Property 3 for as long
// as the leader survives, and re-electing when it crashes (the losers hear
// silence).
type Backoff struct {
	env      sim.Env
	w        int
	deferred int // ballots still to sit out, at most deferBallots
}

// NewBackoff returns a Factory building independent Backoff managers.
func NewBackoff() Factory {
	return func(env sim.Env) Manager {
		return &Backoff{env: env, w: 1}
	}
}

// Advice implements Manager.
func (b *Backoff) Advice() bool {
	if b.deferred > 0 {
		return false
	}
	if b.w <= 1 {
		return true
	}
	return b.env.Intn(b.w) == 0
}

// Observe implements Manager.
func (b *Backoff) Observe(fb Feedback) {
	b.deferred = max(b.deferred-1, 0)
	switch fb {
	case FeedbackWon:
		b.w = 1
	case FeedbackLost:
		b.deferred = deferBallots
	case FeedbackCollision:
		b.w = min(2*b.w, wMax)
	case FeedbackSilence:
		b.w, b.deferred = max(b.w/2, 1), 0
	}
}

// Regional combines eligibility-by-location with exponential backoff: a
// node only competes while it sits within margin of the virtual node
// location it serves — deep enough inside the region (Section 4.2) that its
// bounded speed cannot carry it out before its leadership horizon elapses.
type Regional struct {
	loc    geo.Point
	margin float64
	b      Backoff
}

// Init makes m a fresh regional manager of the node env runs, for the
// virtual node at loc, eligible within margin of it (the deployment's
// LeaderMargin), and returns m. A caller that lays managers out in storage
// of its own (vi.Deployment carves them from one array) passes an entry of
// it; the fields are set one by one, so m need not be zero.
func (m *Regional) Init(loc geo.Point, margin float64, env sim.Env) *Regional {
	m.loc = loc
	m.margin = margin
	m.b.env = env
	m.b.w = 1
	m.b.deferred = 0
	return m
}

// Eligible reports whether the node is currently allowed to compete:
// within margin of the location.
func (m *Regional) Eligible() bool {
	return m.b.env.Location().Within(m.loc, m.margin)
}

// Advice implements Manager.
func (m *Regional) Advice() bool {
	return m.Eligible() && m.b.Advice()
}

// Observe implements Manager.
func (m *Regional) Observe(fb Feedback) {
	m.b.Observe(fb)
}
