package vi

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"

	"vinfra/internal/cha"
	"vinfra/internal/geo"
	"vinfra/internal/sim"
	"vinfra/internal/wire"
)

// Program is a deterministic virtual node automaton (Section 1.2: virtual
// nodes are deterministic). The protocol layer treats states as opaque byte
// strings so they can be digested, compared across replicas, and shipped in
// join-acks; use Codec to write programs against typed states with a
// canonical wire encoding.
//
// Determinism is a correctness requirement: every replica must compute the
// identical state bytes from the identical history. The wire codec makes
// canonical encodings the default (a value has exactly one encoding);
// programs that hand-encode states must preserve that property themselves.
// States are immutable: a virtual node's replicas share them — the initial
// state, and the state each history position steps to, estimated or
// folded, which one replica works out and its siblings take
// (Deployment.step) — so OnRound must return a fresh slice rather than
// mutating its input, and no method may mutate a state it is handed: it is
// a sibling replica's state too.
type Program interface {
	// Init returns the virtual node's initial state. The deployment calls
	// it once per virtual node and shares the bytes among every replica of
	// the node, bootstrapped or reset, as it shares every state stepped
	// from them, so they must never be mutated.
	Init(id VNodeID, loc geo.Point) []byte
	// OnRound consumes the input of one virtual round — the agreed message
	// set, or a collision indication when the round's agreement produced
	// ⊥ — and returns the next state. in.Msgs is valid only during the
	// call: the replica reuses its backing array for the next position.
	OnRound(state []byte, vround int, in RoundInput) []byte
	// Outgoing returns the message the virtual node broadcasts in virtual
	// round vround, given the state entering that round, or nil to listen.
	// The deployment asks once per virtual node and virtual round and hands
	// the answer to every replica (Deployment.outgoing): the returned
	// *Message, payload included, is shared by the node's replicas and
	// must never be mutated.
	Outgoing(state []byte, vround int) *Message
}

// stateCache is a replica's view of its virtual node's state, a value field
// of its emulator. floorState is the state at the floor — the initial
// state, a join-ack's or a fold's — with every position at or below floor
// folded in; state is the last state the replica worked out above it, after
// positions floor+1..upTo of a history whose highest included position at
// or below upTo is top (floor when it includes none there).
//
// That key is exact. Every position a core's history includes is a ballot
// the core adopted for an instance it has closed, and from an included
// position down the history is the chain of those ballots' prev pointers,
// which cannot change while the floor holds; between top and upTo every
// position is ⊥. So a later history of the same core whose highest included
// position at or below upTo is top agrees with the earlier one on every
// position through upTo. A fold, a join, a reset and a restore move the
// floor or replace the core, and start the cache afresh (resetAt). The
// cache never mutates a state: the states it holds are the ones a virtual
// node's replicas share.
type stateCache struct {
	floorState []byte
	floor      cha.Instance

	state     []byte
	upTo, top cha.Instance

	// msgs is the scratch an agreed value's messages are decoded into,
	// reused from position to position; it holds none between calls.
	msgs [][]byte
}

// resetAt installs a state snapshot at the given floor (join state
// transfer, a virtual node reset, or a fold).
func (sc *stateCache) resetAt(floor cha.Instance, state []byte) {
	sc.floor, sc.floorState = floor, state
	sc.state, sc.upTo, sc.top = state, floor, floor
}

// highest returns the highest position at or below k that h includes, or
// floor when it includes none above floor.
func highest(h *cha.History, k, floor cha.Instance) cha.Instance {
	for ; k > floor; k-- {
		if _, ok := h.At(k); ok {
			break
		}
	}
	return k
}

// stateAt returns the state virtual node v reaches after positions
// floor+1..upTo of h, a history of the replica's core, upTo above the floor:
// transmitVN's estimate and a green instance's fold both start here. When
// the cache's key holds for h it resumes from the cache's state and takes
// only the positions after it, otherwise it starts from the floor's; every
// position goes through the deployment's step. The call is made in radio
// round r, in which the last position it steps — the one its siblings ask
// for next — may be published; a negative r, a look between rounds,
// publishes nothing. The returned state is the cache's, shared, never to be
// mutated.
func (d *Deployment) stateAt(v VNodeID, sc *stateCache, h *cha.History, upTo cha.Instance, r sim.Round) []byte {
	top := highest(h, upTo, sc.floor)
	k, state := sc.floor, sc.floorState
	if sc.upTo <= upTo && highest(h, min(top, sc.upTo), sc.floor) == sc.top && !noCache {
		k, state = sc.upTo, sc.state
	}
	for k++; k <= upTo; k++ {
		val, ok := h.At(k)
		state = d.step(v, sc, state, val, ok, k, r, k == upTo && r >= 0)
	}
	sc.state, sc.upTo, sc.top = state, upTo, top
	return state
}

// sharedStep is a step one replica of a virtual node published for its
// siblings: position k of a history — value, or ⊥ when !ok — applied to
// from gives state.
type sharedStep struct {
	k     cha.Instance
	from  []byte
	value cha.Value
	ok    bool
	state []byte
}

// sharedOut is the broadcast one replica of a virtual node worked out for
// its siblings: Program.Outgoing(state, vr) is nil when !sends, and a message
// with msg's payload otherwise. The replicas that broadcast it put a pointer
// to msg on the air, as a Client does its ClientMsg: one VNMsg a virtual node,
// valid for its round like any message.
type sharedOut struct {
	vr    int
	state []byte
	sends bool
	msg   VNMsg
}

// air returns the message to put on the air, nil when the node listens.
func (o *sharedOut) air() *VNMsg {
	if !o.sends {
		return nil
	}
	return &o.msg
}

// memo is what a virtual node's replicas share of one computation: the
// record last published, which a replica matches its own arguments against,
// and a spare. A writer fills the spare and publishes it, and at most one
// writer a radio round claims the memo, so a record is rewritten no earlier
// than two radio rounds after it was written, and never in a round in which
// it was still the published one. The engine joins its workers between
// radio rounds: no reader still holds a record when it is rewritten.
// Readers and the writer meet only through cur's atomics.
type memo[T any] struct {
	recs  [2]T
	cur   atomic.Uint32 // which of recs is published
	claim atomic.Int64  // 1 + the radio round of the last write; 0 none
}

// load returns the published record: the zero T before the first publish.
func (m *memo[T]) load() *T { return &m.recs[m.cur.Load()] }

// publish makes rec the published record in radio round r and returns it,
// unless another writer has claimed the memo in r: then it returns nil.
func (m *memo[T]) publish(r sim.Round, rec T) *T {
	c := m.claim.Load()
	if c == int64(r)+1 || !m.claim.CompareAndSwap(c, int64(r)+1) {
		return nil
	}
	i := 1 - m.cur.Load()
	m.recs[i] = rec
	m.cur.Store(i)
	return &m.recs[i]
}

// vnodeMemo is what a virtual node's replicas share: the last step one of
// them published, and the broadcast.
type vnodeMemo struct {
	step memo[sharedStep]
	out  memo[sharedOut]
}

// memo returns virtual node v's memo, which its first publish allocates: a
// deployment made for a million virtual nodes costs one pointer each until
// they step. Replicas that allocate together keep the first one stored.
func (d *Deployment) memo(v VNodeID) *vnodeMemo {
	if m := d.memos[v].Load(); m != nil {
		return m
	}
	d.memos[v].CompareAndSwap(nil, new(vnodeMemo))
	return d.memos[v].Load()
}

// step is the one way a virtual node's state takes a history position: it
// returns the state virtual node v reaches from state from by applying
// position k of a history, val when the history includes it (ok) and ⊥
// otherwise — an included position delivers its agreed value as the
// round's input, a ⊥ position a collision indication (Section 3.3). A
// replica whose position, start state and value match the step a replica of
// v last published takes that step's state; any other applies the position
// itself, decoding into sc's scratch, and, when publish is set, publishes
// its step in radio round r. Programs are deterministic, so both are the
// same bytes, and a virtual node's replicas step each position once between
// them, not once each, whether they estimate it or fold it. The start state
// matches by content (bytes.Equal, which answers at once for the same slice
// — the steady case, where it is the state the last step published), so
// replicas restored from a checkpoint, or given their state by a join-ack,
// share too. Replicas on the parallel engine's workers meet only through
// the memo; two that miss together both apply, and one of them publishes.
func (d *Deployment) step(v VNodeID, sc *stateCache, from []byte, val cha.Value, ok bool, k cha.Instance, r sim.Round, publish bool) []byte {
	if m := d.memos[v].Load(); m != nil && !noCache {
		if s := m.step.load(); s.k == k && s.ok == ok && s.value.Equal(val) && bytes.Equal(s.from, from) {
			return s.state
		}
	}
	var state []byte
	if in := (RoundInput{Msgs: sc.msgs}); ok && in.decode(val) == nil {
		state = d.programs[v].OnRound(from, int(k), in)
		clear(in.Msgs)
		sc.msgs = in.Msgs[:0]
	} else {
		// A malformed agreed value cannot occur through the emulation
		// protocol itself; it is a collision too, to stay deterministic.
		state = d.programs[v].OnRound(from, int(k), RoundInput{Collision: true})
	}
	if publish {
		d.memo(v).step.publish(r, sharedStep{k: k, from: from, value: val, ok: ok, state: state})
	}
	return state
}

// outgoing returns the vn phase's message of virtual node v in virtual round
// vr, Program.Outgoing(state, vr) as it goes on the air — nil when the node
// listens — asked in radio round r: a replica whose virtual round and state,
// by content, match the broadcast a replica of v last published takes its
// message, and any other asks the program and publishes the answer. A
// virtual node's replicas ask their program once a virtual round between
// them, and put one message on the air, the memo's.
func (d *Deployment) outgoing(v VNodeID, state []byte, vr int, r sim.Round) *VNMsg {
	if m := d.memos[v].Load(); m != nil && !noCache {
		if o := m.out.load(); o.vr == vr && bytes.Equal(o.state, state) {
			return o.air()
		}
	}
	rec := sharedOut{vr: vr, state: state}
	if msg := d.programs[v].Outgoing(state, vr); msg != nil {
		rec.sends, rec.msg = true, VNMsg{Payload: msg.Payload}
	}
	if o := d.memo(v).out.publish(r, rec); o != nil {
		return o.air()
	}
	// A sibling published in this round first: one whose state differs, or
	// one that missed at the same time on another worker.
	if !rec.sends {
		return nil
	}
	return &VNMsg{Payload: rec.msg.Payload}
}

// Codec adapts a typed state S to the Program byte-string interface using
// an explicit wire encoding. Step and Out receive decoded states; a nil or
// malformed state encoding panics, since states only ever come from this
// codec's own EncodeState (a decode failure is a programming error, not an
// input condition).
//
// EncodeState must be canonical (equal states append equal bytes — true by
// construction when it writes fields in a fixed order through
// internal/wire) and DecodeState must consume exactly what EncodeState
// wrote. The empty byte string decodes to S's zero value without calling
// DecodeState.
type Codec[S any] struct {
	// InitState returns the initial typed state.
	InitState func(id VNodeID, loc geo.Point) S
	// Step folds one virtual round into the state.
	Step func(state S, vround int, in RoundInput) S
	// Out computes the broadcast entering a virtual round (may be nil for
	// always-silent nodes).
	Out func(state S, vround int) *Message
	// EncodeState appends state's canonical wire encoding to dst.
	EncodeState func(dst []byte, state S) []byte
	// DecodeState parses one state from d (the inverse of EncodeState).
	DecodeState func(d *wire.Decoder) (S, error)
}

// Init implements Program: InitState's encoding, which the deployment
// works out once per virtual node and every replica shares, as it shares
// every state Deployment.step reaches from it (not to be mutated).
func (c Codec[S]) Init(id VNodeID, loc geo.Point) []byte {
	return c.encode(c.InitState(id, loc))
}

// OnRound implements Program.
func (c Codec[S]) OnRound(state []byte, vround int, in RoundInput) []byte {
	return c.encode(c.Step(c.decode(state), vround, in))
}

// Outgoing implements Program.
func (c Codec[S]) Outgoing(state []byte, vround int) *Message {
	if c.Out == nil {
		return nil
	}
	return c.Out(c.decode(state), vround)
}

// encode runs EncodeState through a pooled scratch buffer and returns an
// exact-size copy: the scratch absorbs append growth (states are encoded
// every round but retained long-term, so the retained copy should carry no
// spare capacity), and the grown buffer goes back to the pool.
func (c Codec[S]) encode(s S) []byte {
	if c.EncodeState == nil {
		panic("vi: Codec requires EncodeState")
	}
	buf := wire.GetBuf()
	enc := c.EncodeState(*buf, s)
	out := append(make([]byte, 0, len(enc)), enc...)
	*buf = enc[:0]
	wire.PutBuf(buf)
	return out
}

// decPool recycles the decoders decode hands to DecodeState: the argument of
// a func value escapes, so a decoder on decode's stack would be a heap
// object per call.
var decPool = sync.Pool{New: func() any { return new(wire.Decoder) }}

func (c Codec[S]) decode(raw []byte) S {
	var s S
	if len(raw) == 0 {
		return s
	}
	if c.DecodeState == nil {
		panic("vi: Codec requires DecodeState")
	}
	d := decPool.Get().(*wire.Decoder)
	*d = wire.Dec(raw)
	s, err := c.DecodeState(d)
	if err == nil {
		err = d.Finish()
	}
	*d = wire.Decoder{} // the pool must not keep raw reachable
	decPool.Put(d)
	if err != nil {
		panic(fmt.Sprintf("vi: state decode: %v", err))
	}
	return s
}
