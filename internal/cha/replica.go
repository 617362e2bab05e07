package cha

import (
	"vinfra/internal/cm"
	"vinfra/internal/sim"
	"vinfra/internal/wire"
)

// RoundsPerInstance is the number of communication rounds CHAP uses per
// agreement instance (Theorem 14: a constant — ballot, veto-1, veto-2).
const RoundsPerInstance = 3

// Phase indexes the three phases within an instance.
type Phase int

// Phases of one CHAP instance.
const (
	PhaseBallot Phase = iota
	PhaseVeto1
	PhaseVeto2
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseBallot:
		return "ballot"
	case PhaseVeto1:
		return "veto-1"
	case PhaseVeto2:
		return "veto-2"
	default:
		return "phase(?)"
	}
}

// PhaseOf maps a radio round to its (instance, phase) pair under the plain
// three-rounds-per-instance schedule of Section 3.
func PhaseOf(r sim.Round) (Instance, Phase) {
	return Instance(r/RoundsPerInstance) + 1, Phase(r % RoundsPerInstance)
}

// BallotMsg carries a ballot on the wire: the length-prefixed proposal
// value plus the prev-instance pointer, which the paper counts as constant
// (footnote: "we consider an array index to be of constant size"). It
// travels as a *BallotMsg that points into the sender, which rewrites it at
// its next ballot: like any message, it is valid for its round.
type BallotMsg struct {
	B Ballot
}

// WireSize implements sim.Sized: the exact length of the ballot's wire
// encoding — the length-prefixed value plus a fixed 8-byte prev pointer.
// The pointer is fixed-width, not a varint, so message size is genuinely
// constant in execution length (the paper's footnote counts an array index
// as constant size; a varint would grow with log of the instance number).
func (m BallotMsg) WireSize() int {
	return wire.BytesSize(m.B.V.Len()) + 8
}

// VetoMsg is the one-bit veto indication of the veto phases.
type VetoMsg struct{}

// WireSize implements sim.Sized.
func (VetoMsg) WireSize() int { return 1 }

// Config parameterizes a Replica.
type Config struct {
	// Propose supplies the node's input value for an instance (Figure 1
	// line 2). It is asked only for the instances whose ballot the
	// contention manager advises (Seat.Ballot). Required.
	Propose func(k Instance) Value
	// CM is the node's contention manager (cm-wakeup of Figure 1 line 3).
	// Required.
	CM cm.Manager
	// OnOutput observes every instance output (Figure 1 line 4): the
	// history for green instances, nil for ⊥. Optional.
	OnOutput func(o Output)
	// Checkpoint enables the garbage-collected variant of Section 3.5:
	// after every green instance, state below it is folded into a running
	// checkpoint digest and freed.
	Checkpoint bool
}

// Seat is one replica's part in a CHAP instance, Figure 1's rule for its
// three phases: Replica runs one, and vi.Emulator one for both of a virtual
// round's instances. Whether the replica broadcast its ballot is the
// caller's to keep (Ballot's result is non-nil) and to hand back to Receive,
// so that an emulator keeps the flag in the word its other flags share.
type Seat struct {
	Core *Core
	CM   cm.Manager
	// ballot is the last ballot broadcast; Ballot hands out a pointer to
	// it, valid for its round (see BallotMsg).
	ballot BallotMsg
}

// Ballot begins instance k (Figure 1 lines 2-3) and returns the ballot to
// broadcast if the contention manager advises it, nil otherwise. The
// proposal is built only when advised: propose(k) is called once then and
// not at all otherwise, since a ballot that stays home carries no value
// anyone reads. The manager is asked once, as its advice may draw from the
// node's randomness.
func (s *Seat) Ballot(k Instance, propose func(Instance) Value) sim.Message {
	b := s.Core.Begin(k, Value{})
	if !s.CM.Advice() {
		return nil
	}
	b.V = propose(k)
	s.ballot.B = b
	return &s.ballot
}

// Veto returns a veto if the core needs one in veto phase p, nil otherwise.
func (s *Seat) Veto(p Phase) sim.Message {
	if s.Core.NeedVeto(p) {
		return VetoMsg{}
	}
	return nil
}

// Receive closes phase p on the reception rx. The ballot phase feeds the
// core the least ballot heard and the contention manager its feedback —
// broadcast says whether this replica's ballot went out — which it returns;
// veto-2 returns the instance's output.
func (s *Seat) Receive(p Phase, rx sim.Reception, broadcast bool) (fb cm.Feedback, out Output) {
	switch p {
	case PhaseBallot:
		b, heard := MinBallotOf(rx.Msgs)
		s.Core.ObserveMinBallot(b, heard, rx.Collision)
		fb = cm.FeedbackOf(broadcast, heard, rx.Collision)
		s.CM.Observe(fb)
	case PhaseVeto1:
		s.Core.ObserveVeto1(HasVeto(rx.Msgs), rx.Collision)
	default: // PhaseVeto2
		out = s.Core.ObserveVeto2(HasVeto(rx.Msgs), rx.Collision)
	}
	return fb, out
}

// Replica runs the CHAP protocol over the radio: one phase per round, three
// rounds per instance, each through its Seat. It implements sim.Node.
type Replica struct {
	cfg       Config
	seat      Seat
	broadcast bool // whether the seat broadcast its ballot this instance
	ckpt      CheckpointState
}

// CheckpointState is the running checkpoint of the garbage-collected
// variant: every instance at or below UpTo has been folded into Digest.
type CheckpointState struct {
	UpTo   Instance
	Digest uint64
}

var _ sim.Node = (*Replica)(nil)

// NewReplica builds a CHAP replica. It panics if required configuration is
// missing, since that is a programming error at wiring time.
func NewReplica(cfg Config) *Replica {
	if cfg.Propose == nil {
		panic("cha: Config.Propose is required")
	}
	if cfg.CM == nil {
		panic("cha: Config.CM is required")
	}
	return &Replica{cfg: cfg, seat: Seat{Core: NewCore(), CM: cfg.CM}}
}

// Core exposes the underlying state machine for inspection by tests and
// the experiment harness.
func (r *Replica) Core() *Core { return r.seat.Core }

// Checkpoint returns the running checkpoint (zero value unless the
// checkpointing variant is enabled and a green instance has occurred).
func (r *Replica) Checkpoint() CheckpointState { return r.ckpt }

// Transmit implements sim.Node.
func (r *Replica) Transmit(round sim.Round) sim.Message {
	k, phase := PhaseOf(round)
	if phase == PhaseBallot {
		m := r.seat.Ballot(k, r.cfg.Propose)
		r.broadcast = m != nil
		return m
	}
	return r.seat.Veto(phase)
}

// Receive implements sim.Node.
func (r *Replica) Receive(round sim.Round, rx sim.Reception) {
	_, phase := PhaseOf(round)
	_, out := r.seat.Receive(phase, rx, r.broadcast)
	if phase != PhaseVeto2 {
		return
	}
	if r.cfg.Checkpoint && out.Color == Green {
		r.fold(out)
	}
	if r.cfg.OnOutput != nil {
		r.cfg.OnOutput(out)
	}
}

// fold advances the checkpoint through a green instance: digest the
// history segment since the last checkpoint, then free it. The digest asks
// for the output's history before GC drops what it is built from, so the
// OnOutput hook after fold reads the history built here.
func (r *Replica) fold(out Output) {
	r.ckpt.Digest = out.History().DigestRange(r.ckpt.UpTo+1, out.Instance, r.ckpt.Digest)
	r.ckpt.UpTo = out.Instance
	r.seat.Core.GC(out.Instance)
}

// MinBallotOf folds the ballot payloads of a reception to their minimum
// (MinBallot of the set, without building it); heard reports whether the
// reception carried a ballot at all.
func MinBallotOf(msgs []sim.Message) (b Ballot, heard bool) {
	for _, m := range msgs {
		if bm, ok := m.(*BallotMsg); ok && (!heard || bm.B.Less(b)) {
			b, heard = bm.B, true
		}
	}
	return b, heard
}

// HasVeto reports whether a reception contains a veto.
func HasVeto(msgs []sim.Message) bool {
	for _, m := range msgs {
		if _, ok := m.(VetoMsg); ok {
			return true
		}
	}
	return false
}
