// Package baseline implements the two comparison points the paper argues
// against:
//
//   - NaiveReplica (Section 3.4): a CHA protocol whose ballots carry the
//     entire history instead of a constant-size prev-instance pointer —
//     "a naïve solution might include the entire history in every
//     message". Message size grows linearly with execution length.
//   - MajorityRSM (Section 1.5): a classic majority-acknowledgment
//     replicated state machine run over the shared radio channel. Because
//     only one message fits on the channel per slot, collecting a majority
//     of acknowledgments serializes, so each decision takes Θ(n) rounds —
//     "most such protocols require at least a majority of the nodes to
//     send messages; in a wireless network this creates unacceptable
//     channel contention and long delays".
//
// Both baselines are honest, working protocols: the experiment harness
// measures them alongside CHAP to reproduce the paper's efficiency claims
// (Theorem 14 and experiment E2/E7 in DESIGN.md).
package baseline

import (
	"vinfra/internal/cha"
	"vinfra/internal/cm"
	"vinfra/internal/sim"
)

// NaiveBallotMsg is a ballot that carries the broadcaster's full current
// history alongside the proposal. Receivers adopt the attached history
// directly instead of reconstructing it from prev pointers.
type NaiveBallotMsg struct {
	V cha.Value
	H *cha.History
}

// WireSize implements sim.Sized: the value, plus one marker byte and the
// value bytes (with an 8-byte index) for every position of the attached
// history. This is the Θ(execution length) cost the paper's constant-size
// ballots avoid.
func (m NaiveBallotMsg) WireSize() int {
	size := m.V.Len()
	for i := cha.Instance(1); i <= m.H.Top(); i++ {
		size++ // present/⊥ marker
		if v, ok := m.H.At(i); ok {
			size += 8 + v.Len()
		}
	}
	return size
}

// NaiveConfig parameterizes a NaiveReplica.
type NaiveConfig struct {
	Propose  func(k cha.Instance) cha.Value
	CM       cm.Manager
	OnOutput func(o cha.Output)
}

// NaiveReplica runs the same three-phase color protocol as CHAP but ships
// and adopts full histories. It implements sim.Node and satisfies the CHA
// guarantees; its message size is what disqualifies it.
type NaiveReplica struct {
	cfg NaiveConfig

	k       cha.Instance
	status  map[cha.Instance]cha.Color
	history *cha.History // last adopted/decided history (the node's state)
	adopted struct {
		v  cha.Value
		h  *cha.History
		ok bool
	}
	broadcast bool
}

var _ sim.Node = (*NaiveReplica)(nil)

// NewNaiveReplica builds a full-history CHA replica.
func NewNaiveReplica(cfg NaiveConfig) *NaiveReplica {
	if cfg.Propose == nil || cfg.CM == nil {
		panic("baseline: NaiveConfig requires Propose and CM")
	}
	return &NaiveReplica{
		cfg:     cfg,
		status:  make(map[cha.Instance]cha.Color),
		history: cha.NewHistory(0, nil),
	}
}

func (r *NaiveReplica) colorOf(k cha.Instance) cha.Color {
	if c, ok := r.status[k]; ok {
		return c
	}
	return cha.Green
}

func (r *NaiveReplica) downgrade(k cha.Instance, to cha.Color) {
	if to < r.colorOf(k) {
		r.status[k] = to
	}
}

// Transmit implements sim.Node.
func (r *NaiveReplica) Transmit(round sim.Round) sim.Message {
	k, phase := cha.PhaseOf(round)
	switch phase {
	case cha.PhaseBallot:
		r.k = k
		r.adopted.ok = false
		r.broadcast = r.cfg.CM.Advice()
		if r.broadcast {
			return NaiveBallotMsg{V: r.cfg.Propose(k), H: r.history}
		}
		r.cfg.Propose(k) // proposals are made regardless (Figure 1 line 15)
		return nil
	case cha.PhaseVeto1:
		if r.colorOf(r.k) == cha.Red {
			return cha.VetoMsg{}
		}
		return nil
	default:
		if r.colorOf(r.k) <= cha.Orange {
			return cha.VetoMsg{}
		}
		return nil
	}
}

// Receive implements sim.Node.
func (r *NaiveReplica) Receive(round sim.Round, rx sim.Reception) {
	_, phase := cha.PhaseOf(round)
	switch phase {
	case cha.PhaseBallot:
		var best *NaiveBallotMsg
		for _, m := range rx.Msgs {
			if bm, ok := m.(NaiveBallotMsg); ok {
				if best == nil || bm.V.Compare(best.V) < 0 {
					b := bm
					best = &b
				}
			}
		}
		if best == nil || rx.Collision {
			r.downgrade(r.k, cha.Red)
			r.cfg.CM.Observe(cm.FeedbackOf(r.broadcast, best != nil, rx.Collision))
			return
		}
		r.adopted.v, r.adopted.h, r.adopted.ok = best.V, best.H, true
		r.cfg.CM.Observe(cm.FeedbackOf(r.broadcast, true, false))
	case cha.PhaseVeto1:
		if cha.HasVeto(rx.Msgs) || rx.Collision {
			r.downgrade(r.k, cha.Orange)
		}
	default:
		if cha.HasVeto(rx.Msgs) || rx.Collision {
			r.downgrade(r.k, cha.Yellow)
		}
		r.finish()
	}
}

func (r *NaiveReplica) finish() {
	st := r.colorOf(r.k)
	if st.Good() && r.adopted.ok {
		// Extend the adopted history with this instance's value.
		vals := make(map[cha.Instance]cha.Value, r.adopted.h.Len()+1)
		for _, i := range r.adopted.h.Included() {
			v, _ := r.adopted.h.At(i)
			vals[i] = v
		}
		vals[r.k] = r.adopted.v
		r.history = cha.NewHistory(r.k, vals)
	} else {
		// Keep the old history, re-topped (a good instance always adopted a
		// ballot: good implies one was received).
		r.history = retop(r.history, r.k)
	}
	var h *cha.History
	if st == cha.Green {
		h = r.history
	}
	if r.cfg.OnOutput != nil {
		r.cfg.OnOutput(cha.NewOutput(r.k, st, 0, h))
	}
}

func retop(h *cha.History, top cha.Instance) *cha.History {
	vals := make(map[cha.Instance]cha.Value, h.Len())
	for _, i := range h.Included() {
		v, _ := h.At(i)
		vals[i] = v
	}
	return cha.NewHistory(top, vals)
}
