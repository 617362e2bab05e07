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
// (footnote: "we consider an array index to be of constant size").
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
	// Propose supplies the node's input value for each instance
	// (Figure 1 line 2). Required.
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

// Replica runs the CHAP protocol over the radio: one phase per round, three
// rounds per instance. It implements sim.Node.
type Replica struct {
	env  sim.Env
	cfg  Config
	core *Core

	broadcastBallot bool // whether this node broadcast in the current ballot phase

	ckpt CheckpointState
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
func NewReplica(env sim.Env, cfg Config) *Replica {
	if cfg.Propose == nil {
		panic("cha: Config.Propose is required")
	}
	if cfg.CM == nil {
		panic("cha: Config.CM is required")
	}
	return &Replica{env: env, cfg: cfg, core: NewCore()}
}

// Core exposes the underlying state machine for inspection by tests and
// the experiment harness.
func (r *Replica) Core() *Core { return r.core }

// Checkpoint returns the running checkpoint (zero value unless the
// checkpointing variant is enabled and a green instance has occurred).
func (r *Replica) Checkpoint() CheckpointState { return r.ckpt }

// Transmit implements sim.Node.
func (r *Replica) Transmit(round sim.Round) sim.Message {
	k, phase := PhaseOf(round)
	switch phase {
	case PhaseBallot:
		v := r.cfg.Propose(k)
		b := r.core.Begin(k, v)
		r.broadcastBallot = r.cfg.CM.Advice(round)
		if r.broadcastBallot {
			return BallotMsg{B: b}
		}
		return nil
	case PhaseVeto1:
		if r.core.NeedVeto1() {
			return VetoMsg{}
		}
		return nil
	default: // PhaseVeto2
		if r.core.NeedVeto2() {
			return VetoMsg{}
		}
		return nil
	}
}

// Receive implements sim.Node.
func (r *Replica) Receive(round sim.Round, rx sim.Reception) {
	_, phase := PhaseOf(round)
	switch phase {
	case PhaseBallot:
		b, heard := MinBallotOf(rx.Msgs)
		r.core.ObserveMinBallot(b, heard, rx.Collision)
		r.cfg.CM.Observe(round, ballotFeedback(r.broadcastBallot, heard, rx.Collision))
	case PhaseVeto1:
		r.core.ObserveVeto1(HasVeto(rx.Msgs), rx.Collision)
	default: // PhaseVeto2
		out := r.core.ObserveVeto2(HasVeto(rx.Msgs), rx.Collision)
		if r.cfg.Checkpoint && out.Color == Green {
			r.fold(out)
		}
		if r.cfg.OnOutput != nil {
			r.cfg.OnOutput(out)
		}
	}
}

// fold advances the checkpoint through a green instance: digest the
// history segment since the last checkpoint, then free it.
func (r *Replica) fold(out Output) {
	r.ckpt.Digest = out.History.DigestRange(r.ckpt.UpTo+1, out.Instance, r.ckpt.Digest)
	r.ckpt.UpTo = out.Instance
	r.core.GC(out.Instance)
}

// ballotFeedback classifies a ballot-phase reception for the contention
// manager: collisions dominate; hearing only one's own broadcast cleanly is
// a win; hearing another's ballot is a loss; nothing is silence.
func ballotFeedback(broadcast, gotBallot, collision bool) cm.Feedback {
	switch {
	case collision:
		return cm.FeedbackCollision
	case broadcast && gotBallot:
		return cm.FeedbackWon
	case gotBallot:
		return cm.FeedbackLost
	default:
		return cm.FeedbackSilence
	}
}

// MinBallotOf folds the ballot payloads of a reception to their minimum
// (MinBallot of the set, without building it); heard reports whether the
// reception carried a ballot at all.
func MinBallotOf(msgs []sim.Message) (b Ballot, heard bool) {
	for _, m := range msgs {
		if bm, ok := m.(BallotMsg); ok && (!heard || bm.B.Less(b)) {
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
