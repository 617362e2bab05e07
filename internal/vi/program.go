package vi

import (
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
// States are immutable by convention: OnRound must return a fresh slice
// rather than mutating its input.
type Program interface {
	// Init returns the virtual node's initial state. The deployment calls
	// it once per virtual node and shares the bytes among every replica of
	// the node, bootstrapped or reset, so they must never be mutated.
	Init(id VNodeID, loc geo.Point) []byte
	// OnRound consumes the input of one virtual round — the agreed message
	// set, or a collision indication when the round's agreement produced
	// ⊥ — and returns the next state. in.Msgs is valid only during the
	// call: the emulator reuses its backing array for the next round.
	OnRound(state []byte, vround int, in RoundInput) []byte
	// Outgoing returns the message the virtual node broadcasts in virtual
	// round vround, given the state entering that round, or nil to listen.
	Outgoing(state []byte, vround int) *Message
}

// stateCache incrementally materializes a virtual node's state from the
// replica's current history chain, re-using the previous computation when
// the chain is a pure extension (the common case once the network is
// stable) and recomputing from the floor's state otherwise. It is a value
// field of its emulator, which hands it the virtual node's program.
type stateCache struct {
	floorState []byte       // state at the floor instance (initial or join snapshot)
	floor      cha.Instance // instances <= floor are folded into floorState

	cachedState  []byte
	cachedUpTo   cha.Instance
	cachedDigest uint64

	// in is the round input apply decodes an agreed value into, reused from
	// instance to instance; it holds no messages between calls.
	in RoundInput
}

// resetAt installs a state snapshot at the given floor (join state
// transfer, or a virtual node reset). The cache never mutates state, which
// may be shared: a virtual node's initial state is the same slice in every
// replica.
func (sc *stateCache) resetAt(floor cha.Instance, state []byte) {
	sc.floor = floor
	sc.floorState = state
	sc.cachedState = state
	sc.cachedUpTo = floor
	sc.cachedDigest = 0
}

// stateBefore returns the virtual node state entering virtual round vround
// (i.e., after applying history through instance vround-1). view returns
// the replica's current history estimate (the core's HistoryView), and is
// called only when the floor lies below instance vround-1: in the steady
// state the last instance went green and was folded, and the answer is the
// floor's state, read without calculating a history. The returned slice is
// owned by the cache; callers must not mutate it.
func (sc *stateCache) stateBefore(prog Program, view func() *cha.History, vround int) []byte {
	upTo := cha.Instance(vround) - 1
	if upTo <= sc.floor {
		// Below the snapshot the snapshot itself is the best available
		// state; at it, it is the state.
		return sc.floorState
	}
	h := view()
	// If the previously cached prefix still matches, extend incrementally.
	prefixDigest := h.DigestRange(sc.floor+1, sc.cachedUpTo, 0)
	start := sc.floor
	state := sc.floorState
	if sc.cachedUpTo > sc.floor && prefixDigest == sc.cachedDigest && sc.cachedUpTo <= upTo {
		start = sc.cachedUpTo
		state = sc.cachedState
	}
	for k := start + 1; k <= upTo; k++ {
		state = sc.apply(prog, state, h, k)
	}
	sc.cachedState = state
	sc.cachedUpTo = upTo
	sc.cachedDigest = h.DigestRange(sc.floor+1, upTo, 0)
	return state
}

// apply folds history position k into the state: an included instance
// delivers its decoded round input; a ⊥ instance delivers a collision
// indication (Section 3.3). The input is decoded into the cache's own
// RoundInput, whose Msgs are cleared once OnRound returns.
func (sc *stateCache) apply(prog Program, state []byte, h *cha.History, k cha.Instance) []byte {
	v, ok := h.At(k)
	if !ok {
		return prog.OnRound(state, int(k), RoundInput{Collision: true})
	}
	if err := sc.in.decode(v); err != nil {
		// A malformed agreed value cannot occur through the emulation
		// protocol itself; treat it as a collision to stay deterministic.
		return prog.OnRound(state, int(k), RoundInput{Collision: true})
	}
	state = prog.OnRound(state, int(k), sc.in)
	clear(sc.in.Msgs)
	sc.in.Msgs = sc.in.Msgs[:0]
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
// works out once per virtual node and every replica shares (not to be
// mutated).
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
