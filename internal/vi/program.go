package vi

import (
	"bytes"
	"fmt"
	"sync"

	"vinfra/internal/cha"
	"vinfra/internal/geo"
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
// position goes through the deployment's step. The returned state is the
// cache's, shared, never to be mutated.
func (d *Deployment) stateAt(v VNodeID, sc *stateCache, h *cha.History, upTo cha.Instance) []byte {
	top := highest(h, upTo, sc.floor)
	k, state := sc.floor, sc.floorState
	if sc.upTo <= upTo && highest(h, min(top, sc.upTo), sc.floor) == sc.top && !noCache {
		k, state = sc.upTo, sc.state
	}
	for k++; k <= upTo; k++ {
		state = d.step(v, sc, state, h, k)
	}
	sc.state, sc.upTo, sc.top = state, upTo, top
	return state
}

// sharedStep is a step one replica of a virtual node published for its
// siblings: position k of a history — value, or ⊥ when !ok — applied to
// from gives state. It is never changed once published.
type sharedStep struct {
	k     cha.Instance
	from  []byte
	value cha.Value
	ok    bool
	state []byte
}

// step is the one way a virtual node's state takes a history position: it
// returns the state virtual node v reaches from state from by applying
// position k of h — an included position delivers its agreed value as the
// round's input, a ⊥ position a collision indication (Section 3.3). A
// replica whose position, start state and value match the last step a
// replica of v published takes that step's state; any other applies the
// position itself, decoding into sc's scratch, and publishes its step in
// the node's slot. Programs are deterministic, so both are the same bytes,
// and a virtual node's replicas step each position once between them, not
// once each, whether they estimate it or fold it. The start state matches
// by content (bytes.Equal, which answers at once for the same slice — the
// steady case, where it is the state the last step published), so replicas
// restored from a checkpoint, or given their state by a join-ack, share
// too. Replicas on the parallel engine's workers meet only through the
// slot's atomic pointer; two that miss together both apply and both
// publish.
func (d *Deployment) step(v VNodeID, sc *stateCache, from []byte, h *cha.History, k cha.Instance) []byte {
	val, ok := h.At(k)
	slot := &d.steps[v]
	if s := slot.Load(); s != nil && s.k == k && s.ok == ok && s.value.Equal(val) &&
		bytes.Equal(s.from, from) && !noCache {
		return s.state
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
	slot.Store(&sharedStep{k: k, from: from, value: val, ok: ok, state: state})
	return state
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
