// Package vi implements the virtual infrastructure emulation of Section 4:
// a set of deterministic virtual nodes at fixed locations, each replicated
// by the mobile devices within distance R1/4 of its location, emulated with
// constant overhead per virtual round on top of the CHAP agreement protocol
// (package cha).
//
// Each virtual round consists of eleven phases (Section 4.3): a message
// sub-protocol (client and vn phases), a scheduled CHAP instance (three
// phases), an unscheduled CHAP instance (three phases, with the ballot
// phase stretched over s+2 slots), and a join/join-ack/reset sub-protocol.
// The total is s+12 radio rounds per virtual round, a constant depending
// only on the virtual-node density (schedule length s), independent of the
// number of replicas and of the execution length.
//
// Payloads, proposal values and virtual-node states are byte strings
// encoded with internal/wire; every wire message's WireSize is the exact
// length of its encoding.
package vi

import (
	"bytes"
	"slices"
	"sync"

	"vinfra/internal/cha"
	"vinfra/internal/wire"
)

// VNodeID identifies a virtual node by its index in the deployment.
type VNodeID int

// None is the VNodeID of "no virtual node" (an emulator outside every
// region).
const None VNodeID = -1

// Message is a payload on the virtual broadcast channel — what clients and
// virtual nodes exchange. Like the underlying channel, the virtual channel
// carries no sender identity; applications encode what they need in the
// payload. Payloads are immutable once handed to the channel: receivers may
// get views of the sender's bytes.
type Message struct {
	Payload []byte
}

// Text builds a Message with a UTF-8 payload — the convenient constructor
// for free-form payloads (demos, tests, pings). Protocol applications
// encode binary payloads with internal/wire instead.
func Text(s string) *Message { return &Message{Payload: []byte(s)} }

// --- Wire messages of the emulation protocol ---

// ClientMsg carries a client's broadcast in the client phase.
type ClientMsg struct {
	Payload []byte
}

// WireSize implements sim.Sized: a tag byte plus the length-prefixed
// payload, the exact length of the message's wire encoding.
func (m ClientMsg) WireSize() int { return 1 + wire.BytesSize(len(m.Payload)) }

// VNMsg carries a virtual node's broadcast in the vn phase (sent by one or
// more of its replicas on its behalf).
type VNMsg struct {
	Payload []byte
}

// WireSize implements sim.Sized.
func (m VNMsg) WireSize() int { return 1 + wire.BytesSize(len(m.Payload)) }

// JoinReqMsg announces a new emulator requesting the virtual node state.
type JoinReqMsg struct{}

// WireSize implements sim.Sized.
func (JoinReqMsg) WireSize() int { return 1 }

// JoinAckMsg transfers the virtual node's replica state to a joiner: the
// sender's checkpointed virtual-node state plus its agreement-layer state
// above the checkpoint. Its size is the state-transfer cost the paper's
// open question (3) wants reduced.
type JoinAckMsg struct {
	// StateFloor is the checkpoint instance: State is the virtual node
	// state after applying the agreed history up to and including it.
	StateFloor cha.Instance
	// State is the encoded virtual node state at StateFloor.
	State []byte
	// Snap is the sender's agreement-layer state above the checkpoint.
	Snap cha.CoreSnapshot
}

// AppendTo appends the ack's canonical wire encoding: the checkpoint
// instance, the length-prefixed state, and the core snapshot.
func (m JoinAckMsg) AppendTo(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, uint64(m.StateFloor))
	dst = wire.AppendBytes(dst, m.State)
	return m.Snap.AppendTo(dst)
}

// WireSize implements sim.Sized: the exact length of AppendTo's encoding.
func (m JoinAckMsg) WireSize() int {
	return wire.UvarintSize(uint64(m.StateFloor)) +
		wire.BytesSize(len(m.State)) +
		m.Snap.WireSize()
}

// DecodeJoinAckMsg parses a join-ack body produced by AppendTo. Adversarial
// bytes yield an error, never a panic; the decoded State is a copy, safe to
// retain.
func DecodeJoinAckMsg(b []byte) (JoinAckMsg, error) {
	d := wire.Dec(b)
	var m JoinAckMsg
	m.StateFloor = cha.Instance(d.Uvarint())
	state := d.Bytes()
	snap, err := cha.DecodeCoreSnapshot(&d)
	if err != nil {
		return JoinAckMsg{}, err
	}
	if err := d.Finish(); err != nil {
		return JoinAckMsg{}, err
	}
	m.State = append([]byte(nil), state...)
	m.Snap = snap
	return m, nil
}

// ResetGuardMsg is broadcast in the reset phase by live replicas to prevent
// a joiner from resetting a virtual node that is still alive.
type ResetGuardMsg struct{}

// WireSize implements sim.Sized.
func (ResetGuardMsg) WireSize() int { return 1 }

// --- Proposal encoding ---

// RoundInput is what one replica believes the virtual node experienced in
// one virtual round: the messages to deliver and whether the virtual node
// itself broadcast. It is encoded as the CHA proposal value, so the
// replicas agree on it per round.
type RoundInput struct {
	// Msgs are the payloads heard for the virtual node during the message
	// sub-protocol, sorted bytewise and deduplicated for determinism.
	Msgs [][]byte
	// Collision reports whether the replica observed a collision during
	// the message sub-protocol (the virtual channel is collision-prone).
	Collision bool
	// VNBroadcast reports whether the virtual node's own broadcast was
	// observed in the vn phase.
	VNBroadcast bool
}

// Normalize sorts (bytewise) and deduplicates Msgs in place. It allocates
// nothing.
func (in *RoundInput) Normalize() {
	slices.SortFunc(in.Msgs, bytes.Compare)
	out := in.Msgs[:0]
	var last []byte
	for i, m := range in.Msgs {
		if i == 0 || !bytes.Equal(m, last) {
			out = append(out, m)
		}
		last = m
	}
	in.Msgs = out
}

// Proposal flag bits.
const (
	flagCollision   = 1 << 0
	flagVNBroadcast = 1 << 1
)

// msgsScratch pools the slice-header copies Encode sorts, so the per-round
// proposal encoding allocates only the value bytes themselves.
var msgsScratch = sync.Pool{
	New: func() any {
		s := make([][]byte, 0, 16)
		return &s
	},
}

// Encode serializes the input as a CHA proposal value: a flags byte, the
// message count, then the length-prefixed messages in sorted order. The
// encoding is canonical: equal inputs encode identically. The caller's
// Msgs slice is not mutated; the encoded value owns its bytes.
func (in RoundInput) Encode() cha.Value {
	scratch := msgsScratch.Get().(*[][]byte)
	cp := RoundInput{
		Msgs:        append((*scratch)[:0], in.Msgs...),
		Collision:   in.Collision,
		VNBroadcast: in.VNBroadcast,
	}
	cp.Normalize()

	size := 1 + wire.UvarintSize(uint64(len(cp.Msgs)))
	for _, m := range cp.Msgs {
		size += wire.BytesSize(len(m))
	}
	buf := make([]byte, 0, size)
	var flags byte
	if cp.Collision {
		flags |= flagCollision
	}
	if cp.VNBroadcast {
		flags |= flagVNBroadcast
	}
	buf = append(buf, flags)
	buf = wire.AppendUvarint(buf, uint64(len(cp.Msgs)))
	for _, m := range cp.Msgs {
		buf = wire.AppendBytes(buf, m)
	}
	// Clear the copied headers before pooling: elements past len(0) would
	// otherwise keep one round's payload bytes reachable from the pool.
	full := cp.Msgs[:cap(cp.Msgs)]
	clear(full)
	*scratch = full[:0]
	msgsScratch.Put(scratch)
	return cha.ValueOf(buf)
}

// DecodeRoundInput parses a proposal value back into a RoundInput. The
// decoded Msgs are zero-copy views into the value's bytes (values are
// immutable, so the views are safe to read but must not be mutated).
// Adversarial bytes yield an error, never a panic.
func DecodeRoundInput(v cha.Value) (RoundInput, error) {
	d := wire.Dec(v.Bytes())
	var in RoundInput
	flags := d.Uvarint()
	if d.Err() == nil && flags > flagCollision|flagVNBroadcast {
		return RoundInput{}, wire.ErrMalformed
	}
	in.Collision = flags&flagCollision != 0
	in.VNBroadcast = flags&flagVNBroadcast != 0
	n := d.Uvarint()
	if d.Err() != nil || n > uint64(d.Rem()) {
		return RoundInput{}, wire.ErrMalformed
	}
	if n > 0 {
		in.Msgs = make([][]byte, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		m := d.Bytes()
		if d.Err() != nil {
			return RoundInput{}, d.Err()
		}
		in.Msgs = append(in.Msgs, m)
	}
	if err := d.Finish(); err != nil {
		return RoundInput{}, err
	}
	return in, nil
}
