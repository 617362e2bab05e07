package baseline

import (
	"fmt"

	"vinfra/internal/sim"
)

// The majority-RSM baseline needs unique identifiers, known membership,
// and a TDMA acknowledgment schedule — all assumptions the paper's
// protocol avoids — and it still pays Θ(n) rounds per decision because
// acknowledgments serialize on the single shared channel.

// ProposeMsg is the leader's proposal for slot k.
type ProposeMsg struct {
	K int
	V string
}

// WireSize implements sim.Sized.
func (m ProposeMsg) WireSize() int { return 8 + len(m.V) }

// AckMsg acknowledges slot K from replica Slot.
type AckMsg struct {
	K    int
	Slot int
}

// WireSize implements sim.Sized.
func (AckMsg) WireSize() int { return 16 }

// CommitMsg finalizes slot K with value V.
type CommitMsg struct {
	K int
	V string
}

// WireSize implements sim.Sized.
func (m CommitMsg) WireSize() int { return 8 + len(m.V) }

// RSMConfig parameterizes one MajorityRSM node.
type RSMConfig struct {
	// N is the (required, known) membership size.
	N int
	// Index is this node's unique slot in [0, N).
	Index int
	// LeaderIndex designates the fixed leader.
	LeaderIndex int
	// Propose supplies the leader's command for each slot.
	Propose func(k int) string
	// OnCommit observes each locally committed slot. Optional.
	OnCommit func(k int, v string)
}

// MajorityRSM is a node of the majority-acknowledgment replicated state
// machine. The protocol advances in fixed attempts of N+2 rounds:
//
//	round 0:      leader broadcasts Propose(k, v)
//	rounds 1..N:  replica with slot i-1 broadcasts Ack in round i if it
//	              received the proposal (TDMA — one ack per round, since
//	              the channel carries one message per slot)
//	round N+1:    leader broadcasts Commit if it counted a majority of
//	              acks; otherwise the attempt failed and k is retried
//
// A slot therefore costs at least N+2 rounds, growing linearly with
// membership — the contention cost the paper's Section 1.5 cites.
type MajorityRSM struct {
	cfg RSMConfig

	k       int // current slot being decided
	attempt int // rounds consumed so far (for metrics)

	// leader state
	pendingV string
	acks     map[int]bool

	// replica state
	curProposal *ProposeMsg

	// Metrics
	RoundsPerCommit []int // rounds consumed by each committed slot (leader only)
	roundsThisSlot  int
}

var _ sim.Node = (*MajorityRSM)(nil)

// NewMajorityRSM builds one RSM node.
func NewMajorityRSM(cfg RSMConfig) *MajorityRSM {
	if cfg.N <= 0 {
		panic("baseline: RSMConfig.N must be positive")
	}
	if cfg.Index < 0 || cfg.Index >= cfg.N {
		panic(fmt.Sprintf("baseline: RSMConfig.Index %d out of [0,%d)", cfg.Index, cfg.N))
	}
	if cfg.Propose == nil && cfg.Index == cfg.LeaderIndex {
		panic("baseline: leader requires Propose")
	}
	return &MajorityRSM{
		cfg:  cfg,
		k:    1,
		acks: make(map[int]bool),
	}
}

// AttemptRounds returns the rounds per attempt for a given membership size.
func AttemptRounds(n int) int { return n + 2 }

func (m *MajorityRSM) isLeader() bool { return m.cfg.Index == m.cfg.LeaderIndex }

// phase returns the position within the current attempt.
func (m *MajorityRSM) phase(r sim.Round) int {
	return int(r) % AttemptRounds(m.cfg.N)
}

// Transmit implements sim.Node.
func (m *MajorityRSM) Transmit(r sim.Round) sim.Message {
	ph := m.phase(r)
	switch {
	case ph == 0:
		m.roundsThisSlot += AttemptRounds(m.cfg.N)
		if m.isLeader() {
			m.pendingV = m.cfg.Propose(m.k)
			m.acks = map[int]bool{m.cfg.Index: true} // leader implicitly acks
			return ProposeMsg{K: m.k, V: m.pendingV}
		}
		m.curProposal = nil
		return nil
	case ph >= 1 && ph <= m.cfg.N:
		slot := ph - 1
		if slot == m.cfg.Index && !m.isLeader() && m.curProposal != nil {
			return AckMsg{K: m.curProposal.K, Slot: slot}
		}
		return nil
	default: // commit phase
		if m.isLeader() && len(m.acks) >= m.majority() {
			return CommitMsg{K: m.k, V: m.pendingV}
		}
		return nil
	}
}

func (m *MajorityRSM) majority() int { return m.cfg.N/2 + 1 }

// Receive implements sim.Node.
func (m *MajorityRSM) Receive(r sim.Round, rx sim.Reception) {
	ph := m.phase(r)
	switch {
	case ph == 0:
		if m.isLeader() {
			return
		}
		for _, msg := range rx.Msgs {
			// Adopting any proposal at or ahead of the local slot lets a
			// replica that missed a commit resynchronize with the leader.
			if p, ok := msg.(ProposeMsg); ok && p.K >= m.k {
				p := p
				m.k = p.K
				m.curProposal = &p
			}
		}
	case ph >= 1 && ph <= m.cfg.N:
		if !m.isLeader() {
			return
		}
		for _, msg := range rx.Msgs {
			if a, ok := msg.(AckMsg); ok && a.K == m.k {
				m.acks[a.Slot] = true
			}
		}
	default:
		committed := false
		var v string
		if m.isLeader() {
			if len(m.acks) >= m.majority() {
				committed, v = true, m.pendingV
			}
		} else {
			for _, msg := range rx.Msgs {
				if c, ok := msg.(CommitMsg); ok && c.K >= m.k {
					committed, v = true, c.V
					m.k = c.K
				}
			}
		}
		if committed {
			if m.cfg.OnCommit != nil {
				m.cfg.OnCommit(m.k, v)
			}
			if m.isLeader() {
				m.RoundsPerCommit = append(m.RoundsPerCommit, m.roundsThisSlot)
			}
			m.k++
			m.roundsThisSlot = 0
		}
	}
}
