// Package sim provides the slotted, synchronous round engine on which the
// paper's protocols execute (Section 2 of Chockler, Gilbert, Lynch,
// PODC 2008): a fixed but a-priori-unknown collection of mobile nodes
// proceeds in lockstep rounds; in each round a node either broadcasts or
// listens, and at the end of the round it receives a set of messages plus a
// collision-detector indication.
//
// The engine is deterministic: a given seed reproduces a run bit-for-bit.
// Nodes share no state, so their per-round step functions may run
// concurrently (one goroutine per node) without affecting determinism.
//
// The determinism contract extends across partitioning. The region-sharded
// engine (WithRegionShards) splits the world into shard-owned cell
// rectangles and runs one Medium per shard, but every cross-shard merge —
// collected transmissions, delivered receptions, halo accounting — happens
// in (cell, node) order keyed by NodeID, never in goroutine-completion or
// map-iteration order. A run is therefore byte-identical for every shard
// count, sequential or parallel: shards decide only where work executes,
// never what order its results take. Code in the sharded path must
// preserve this — merge through the NodeID-indexed slices, and derive any
// per-shard randomness from (seed, round, node), never from the shard
// index.
//
// A node's radio may be off. A node that will neither broadcast nor use
// what it hears before some future round says so with Env.SleepUntil, and
// until that round the engine does not call its Transmit or Receive and no
// medium is asked for its reception: a sleeping device costs a round its
// mobility step and nothing else. The awake list — the alive nodes whose
// radio is on, in NodeID order — is the one place that decision lives:
// Transmit, Receive, the shard partition and every medium's receiver list
// are walks of it, and bringing it up to date each round costs what changed
// (the nodes that fell asleep, the nodes whose wake round came), not the
// population. Sleeping is a promise about the node's own behaviour, not
// simulation state — a node may only sleep through rounds in which it would
// have transmitted nothing and ignored what it received, so a run with
// sleepers is byte-identical, at every round, to the same run with every
// SleepUntil ignored. Snapshots therefore do not record it: Restore and
// Fork wake everyone, and a node declares again at its next Receive.
package sim

import (
	"vinfra/internal/geo"
)

// NodeID identifies a node to the engine. The paper's protocols must not
// rely on these identifiers (Section 1.4: nodes "do not require ... unique
// identifiers"); they exist for engine bookkeeping, deterministic iteration
// order, and test assertions only.
type NodeID int

// Round is a slot index of the synchronous channel, starting at 0.
type Round int

// Message is the payload of a broadcast. Protocol messages implement Sized
// so the harness can account for wire size (Theorem 14 measures message
// size in the abstract cost model).
type Message interface{}

// Sized is implemented by messages that report their abstract wire size in
// bytes. Messages that do not implement Sized count as DefaultMessageSize.
type Sized interface {
	WireSize() int
}

// DefaultMessageSize is the accounted size of a message that does not
// implement Sized.
const DefaultMessageSize = 8

// MessageSize returns the accounted wire size of m.
func MessageSize(m Message) int {
	if s, ok := m.(Sized); ok {
		return s.WireSize()
	}
	return DefaultMessageSize
}

// Transmission is one broadcast attempt within a round.
type Transmission struct {
	Sender NodeID
	From   geo.Point
	Msg    Message
}

// Reception is everything a node observes at the end of a round: the set of
// messages it received and its collision detector's indication (the ±
// notification of Section 2). The zero value is the empty reception — what
// a node out of everyone's range hears.
type Reception struct {
	// Msgs holds the received messages in deterministic (sender ID) order.
	// Protocols must not depend on this order carrying identity. The slice
	// belongs to the medium, which may hand the same one to every receiver
	// of a message, and is valid only until the node's Receive returns (a
	// RoundHook's call, for hooks): a node reads it, never writes into it,
	// and copies it to keep it. The messages themselves are the senders'
	// values and stay whatever the medium does with the slice.
	Msgs []Message
	// Collision is the collision detector output for this round.
	Collision bool
}

// NodeInfo is the engine's view of one receiver, passed to the Medium so it
// can compute propagation. The engine lists only nodes whose radio is on, so
// it always passes Alive true; the field is for callers that drive a Medium
// by hand with a list of their own.
type NodeInfo struct {
	ID    NodeID
	At    geo.Point
	Alive bool
}

// Medium computes, for one round, what every listed node receives given the
// set of transmissions. rxs lists the receivers to compute, in NodeID
// order; the returned slice is indexed positionally (entry i answers
// rxs[i]) and must be as long. The engine lists exactly the nodes that are
// alive and awake this round — a crashed or sleeping device reaches no
// medium — and on an engine with two or more region shards
// (WithRegionShards) each shard medium gets only its own residents among
// them, together with every transmission within the interference radius of
// any of them. So a Medium must derive each reception only from (round,
// receiver, the transmissions within the interference radius of that
// receiver) and per-(round, receiver)-keyed randomness, never from the
// receiver set as a whole or from txs beyond the radius. radio.Medium
// satisfies this, which is what makes delivery to the awake devices alone,
// and sharded delivery, byte-identical to delivering to everyone at once.
//
// Both slice arguments are engine-owned buffers reused across rounds, so a
// Medium must not retain them past the call; symmetrically, the engine
// treats the returned slice, and every Msgs slice inside it, as valid only
// until the next Deliver call, so a Medium may reuse both (radio.Medium
// backs a round's Msgs with one arena, a message per transmission, that it
// refills the next round). Until then a Medium must leave them untouched:
// the engine hands them to Receive and to the round's hooks after Deliver
// returns.
type Medium interface {
	Deliver(r Round, txs []Transmission, rxs []NodeInfo) []Reception
}

// Node is a protocol endpoint driven by the engine. In each round the
// engine first calls Transmit on every alive node (nil means listen), then
// computes propagation through the Medium, then calls Receive on every
// alive node — except nodes that are asleep (Env.SleepUntil), on which it
// calls neither. A node must not count on its sleep lasting: after a
// Restore it is called in rounds it had slept through in the original run,
// so Transmit and Receive keep whatever checks make those rounds no-ops.
type Node interface {
	// Transmit returns the message to broadcast in round r, or nil to
	// listen.
	Transmit(r Round) Message
	// Receive delivers the round's reception.
	Receive(r Round, rx Reception)
}

// Env gives an attached node access to its engine-provided environment:
// identity, a GPS-style location reading, and a deterministic per-node
// random source.
type Env interface {
	ID() NodeID
	// Location returns the node's current position (the periodic GPS
	// update of Section 2; exact in this simulation).
	Location() geo.Point
	// Intn returns a deterministic uniform int in [0, n). It must only be
	// called from within the node's own Transmit/Receive to preserve
	// determinism.
	Intn(n int) int
	// Float64 returns a deterministic uniform float64 in [0, 1).
	Float64() float64
	// SleepUntil turns the node's radio off until round r: the engine calls
	// neither Transmit nor Receive on the node, and computes no reception
	// for it, in any round before r. It may only be called from within the
	// node's own Transmit/Receive. Called from Transmit, the node still gets
	// that round's Receive; a round that is not in the future is a no-op,
	// and of several calls the latest round wins. The node keeps moving and
	// stays alive while asleep. Only sleep through rounds the node would
	// have sat out anyway — see the package comment.
	SleepUntil(r Round)
}

// Mover updates a node's position once per round. Implementations live in
// internal/mobility; Static nodes use nil.
type Mover interface {
	// Move returns the position for the next round given the current one.
	// Displacement per round must not exceed the model's vmax. rnd draws
	// from the moving node's own random stream; it is a closure the engine
	// shares between the nodes one worker moves, so it must not be kept or
	// called after Move returns.
	Move(r Round, cur geo.Point, rnd func(n int) int) geo.Point
}
