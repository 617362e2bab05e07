package sim

import (
	"fmt"
	"slices"

	"vinfra/internal/det"
	"vinfra/internal/geo"
	"vinfra/internal/wire"
)

// Snapshotter is the optional per-entity half of the snapshot contract: a
// Node, Mover or client program that carries mutable state between rounds
// implements it to let Engine.Snapshot capture that state as an opaque
// byte string and Engine.Restore put it back. The bytes are owned by the
// implementation (typically an internal/wire encoding) and are deliberately
// not a wire trio of their own — the engine treats them as a blob inside
// NodeSnapshot, which carries the canonical encoding.
//
// Entities with no mutable state (mobility.Static, stateless client
// programs) simply do not implement the interface; the engine records an
// empty blob for them and restoring a non-empty blob onto one is an error
// (it means the snapshot was taken against a different deployment).
type Snapshotter interface {
	// AppendState appends the entity's mutable state to dst and returns
	// the extended slice.
	AppendState(dst []byte) []byte
	// RestoreState replaces the entity's mutable state with one captured
	// by AppendState.
	RestoreState(data []byte) error
}

// wireEncoder is the AppendTo half of the wire trio, used to fingerprint
// registered faults without naming their concrete types.
type wireEncoder interface {
	AppendTo(dst []byte) []byte
}

// NodeSnapshot captures one attached node: engine-owned bookkeeping
// (position, liveness, RNG position) plus the node's and its mover's
// Snapshotter blobs.
type NodeSnapshot struct {
	ID    NodeID
	X, Y  float64
	Alive bool
	RNG   uint64 // det.Stream position word
	Mover []byte // mover Snapshotter blob, empty when stateless
	State []byte // node Snapshotter blob, empty when stateless
}

// AppendTo appends the canonical encoding of s to dst.
func (s NodeSnapshot) AppendTo(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, uint64(s.ID))
	dst = wire.AppendFloat64(dst, s.X)
	dst = wire.AppendFloat64(dst, s.Y)
	dst = wire.AppendBool(dst, s.Alive)
	dst = wire.AppendUint64(dst, s.RNG)
	dst = wire.AppendBytes(dst, s.Mover)
	return wire.AppendBytes(dst, s.State)
}

// WireSize returns the exact encoded size of s.
func (s NodeSnapshot) WireSize() int {
	return wire.UvarintSize(uint64(s.ID)) + 8 + 8 + 1 + 8 +
		wire.BytesSize(len(s.Mover)) + wire.BytesSize(len(s.State))
}

// DecodeNodeSnapshot decodes one NodeSnapshot from d.
func DecodeNodeSnapshot(d *wire.Decoder) (NodeSnapshot, error) {
	var s NodeSnapshot
	s.ID = NodeID(d.Uvarint())
	s.X = d.Float64()
	s.Y = d.Float64()
	s.Alive = d.Bool()
	s.RNG = d.Uint64()
	s.Mover = append([]byte(nil), d.Bytes()...)
	s.State = append([]byte(nil), d.Bytes()...)
	if err := d.Err(); err != nil {
		return NodeSnapshot{}, err
	}
	return s, nil
}

// EngineSnapshot is the engine layer of a full checkpoint: everything the
// round loop owns, in canonical form. The deployment itself (mediums,
// movers, node constructors, faults, hooks) is code, not state — a restore
// rebuilds the world with the same constructors and parameters, then lays
// this snapshot over it. Seed, shard geometry and the fault fingerprint are
// recorded so Restore can reject a snapshot taken against a different
// configuration instead of silently diverging.
type EngineSnapshot struct {
	Seed        int64
	Round       Round
	Stats       Stats
	ShardCols   int // region-shard plan geometry, 0 on the single-medium path
	ShardRows   int
	FaultDigest uint64 // fingerprint of the registered faults, see faultDigest
	Nodes       []NodeSnapshot
	// Pending CrashAt schedules: CrashRounds is sorted ascending and
	// CrashIDs is aligned with it, each entry sorted by NodeID, so the
	// encoding is canonical regardless of map iteration order.
	CrashRounds []Round
	CrashIDs    [][]NodeID
}

// AppendTo appends the canonical encoding of s to dst.
func (s EngineSnapshot) AppendTo(dst []byte) []byte {
	dst = wire.AppendVarint(dst, s.Seed)
	dst = wire.AppendUvarint(dst, uint64(s.Round))
	dst = wire.AppendUvarint(dst, uint64(s.Stats.Rounds))
	dst = wire.AppendUvarint(dst, uint64(s.Stats.Transmissions))
	dst = wire.AppendUvarint(dst, uint64(s.Stats.MaxMessageSize))
	dst = wire.AppendUvarint(dst, uint64(s.Stats.TotalBytes))
	dst = wire.AppendUvarint(dst, uint64(s.Stats.HaloTransmissions))
	dst = wire.AppendUvarint(dst, uint64(s.ShardCols))
	dst = wire.AppendUvarint(dst, uint64(s.ShardRows))
	dst = wire.AppendUint64(dst, s.FaultDigest)
	dst = wire.AppendUvarint(dst, uint64(len(s.Nodes)))
	for _, n := range s.Nodes {
		dst = n.AppendTo(dst)
	}
	dst = wire.AppendUvarint(dst, uint64(len(s.CrashRounds)))
	for i, r := range s.CrashRounds {
		dst = wire.AppendUvarint(dst, uint64(r))
		ids := s.CrashIDs[i]
		dst = wire.AppendUvarint(dst, uint64(len(ids)))
		for _, id := range ids {
			dst = wire.AppendUvarint(dst, uint64(id))
		}
	}
	return dst
}

// WireSize returns the exact encoded size of s.
func (s EngineSnapshot) WireSize() int {
	n := wire.VarintSize(s.Seed) +
		wire.UvarintSize(uint64(s.Round)) +
		wire.UvarintSize(uint64(s.Stats.Rounds)) +
		wire.UvarintSize(uint64(s.Stats.Transmissions)) +
		wire.UvarintSize(uint64(s.Stats.MaxMessageSize)) +
		wire.UvarintSize(uint64(s.Stats.TotalBytes)) +
		wire.UvarintSize(uint64(s.Stats.HaloTransmissions)) +
		wire.UvarintSize(uint64(s.ShardCols)) +
		wire.UvarintSize(uint64(s.ShardRows)) +
		8 +
		wire.UvarintSize(uint64(len(s.Nodes)))
	for _, node := range s.Nodes {
		n += node.WireSize()
	}
	n += wire.UvarintSize(uint64(len(s.CrashRounds)))
	for i, r := range s.CrashRounds {
		n += wire.UvarintSize(uint64(r))
		ids := s.CrashIDs[i]
		n += wire.UvarintSize(uint64(len(ids)))
		for _, id := range ids {
			n += wire.UvarintSize(uint64(id))
		}
	}
	return n
}

// DecodeEngineSnapshot decodes an EngineSnapshot from b, which must contain
// exactly one encoding.
func DecodeEngineSnapshot(b []byte) (EngineSnapshot, error) {
	d := wire.Dec(b)
	var s EngineSnapshot
	s.Seed = d.Varint()
	s.Round = Round(d.Uvarint())
	s.Stats.Rounds = int(d.Uvarint())
	s.Stats.Transmissions = int(d.Uvarint())
	s.Stats.MaxMessageSize = int(d.Uvarint())
	s.Stats.TotalBytes = int(d.Uvarint())
	s.Stats.HaloTransmissions = int(d.Uvarint())
	s.ShardCols = int(d.Uvarint())
	s.ShardRows = int(d.Uvarint())
	s.FaultDigest = d.Uint64()
	nn := d.Uvarint()
	if nn > uint64(d.Rem()) {
		return EngineSnapshot{}, wire.ErrMalformed
	}
	s.Nodes = make([]NodeSnapshot, 0, nn)
	for i := uint64(0); i < nn; i++ {
		node, err := DecodeNodeSnapshot(&d)
		if err != nil {
			return EngineSnapshot{}, err
		}
		s.Nodes = append(s.Nodes, node)
	}
	nc := d.Uvarint()
	if nc > uint64(d.Rem()) {
		return EngineSnapshot{}, wire.ErrMalformed
	}
	s.CrashRounds = make([]Round, 0, nc)
	s.CrashIDs = make([][]NodeID, 0, nc)
	for i := uint64(0); i < nc; i++ {
		r := Round(d.Uvarint())
		ni := d.Uvarint()
		if ni > uint64(d.Rem()) {
			return EngineSnapshot{}, wire.ErrMalformed
		}
		ids := make([]NodeID, 0, ni)
		for j := uint64(0); j < ni; j++ {
			ids = append(ids, NodeID(d.Uvarint()))
		}
		s.CrashRounds = append(s.CrashRounds, r)
		s.CrashIDs = append(s.CrashIDs, ids)
	}
	if err := d.Finish(); err != nil {
		return EngineSnapshot{}, err
	}
	return s, nil
}

// Snapshot captures the engine's complete mutable state at a round
// boundary: round counter, stats, every node's position/liveness/RNG
// position and Snapshotter blobs, and the pending CrashAt schedule — not
// who is asleep, which no result depends on (Restore wakes everyone). Taking
// a snapshot never mutates simulation state; two snapshots of the same
// state are byte-identical (map walks are sorted into canonical order).
// It does release the persistent worker runtime (Close) so a checkpoint
// boundary carries no live worker goroutines — the pool is code, not
// state, and is rebuilt lazily on the next parallel Step.
func (e *Engine) Snapshot() EngineSnapshot {
	e.Close()
	s := EngineSnapshot{
		Seed:        e.seed,
		Round:       e.round,
		Stats:       e.stats,
		FaultDigest: e.faultDigest(),
	}
	s.ShardCols, s.ShardRows = e.plane.cols, e.plane.rows
	s.Nodes = make([]NodeSnapshot, len(e.nodes))
	for i, st := range e.nodes {
		in := e.info[i]
		ns := NodeSnapshot{
			ID:    st.id,
			X:     in.At.X,
			Y:     in.At.Y,
			Alive: in.Alive,
			RNG:   st.rng.State(),
		}
		if sn, ok := st.mover.(Snapshotter); ok {
			ns.Mover = sn.AppendState(nil)
		}
		if sn, ok := st.node.(Snapshotter); ok {
			ns.State = sn.AppendState(nil)
		}
		s.Nodes[i] = ns
	}
	rounds := make([]Round, 0, len(e.crash))
	for r := range e.crash {
		rounds = append(rounds, r)
	}
	slices.Sort(rounds)
	for _, r := range rounds {
		ids := append([]NodeID(nil), e.crash[r]...)
		slices.Sort(ids)
		s.CrashRounds = append(s.CrashRounds, r)
		s.CrashIDs = append(s.CrashIDs, ids)
	}
	return s
}

// Restore lays snapshot s over an engine whose deployment has been rebuilt
// to match the one the snapshot was taken from: same constructors, same
// attach order, same seed, same shard plan, same registered faults. It
// validates all of that (node count and IDs, seed, shard geometry, fault
// fingerprint) and then overwrites the engine's mutable state, after which
// stepping the engine produces exactly the rounds the original would have.
// Every node comes back awake, whatever it had declared with SleepUntil.
// On error the engine may be partially restored; rebuild it before
// retrying.
func (e *Engine) Restore(s EngineSnapshot) error {
	if s.Seed != e.seed {
		return fmt.Errorf("sim: restore: snapshot seed %d, engine seed %d", s.Seed, e.seed)
	}
	if got := e.faultDigest(); s.FaultDigest != got {
		return fmt.Errorf("sim: restore: snapshot fault digest %#x, engine %#x (rebuild with the same fault set)", s.FaultDigest, got)
	}
	return e.restore(s)
}

// Fork is Restore for counterfactual runs: it lays snapshot s over the
// engine but re-keys every node's random stream under the new seed, so the
// forked run replays the same world state forward under fresh randomness
// (and, because fault fingerprints are not checked, optionally a different
// fault set). Each node's stream is re-keyed as a pure function of
// (newSeed, node, saved position), so forks are themselves deterministic
// and two forks with the same arguments are identical.
func (e *Engine) Fork(s EngineSnapshot, seed int64) error {
	if err := e.restore(s); err != nil {
		return err
	}
	e.seed = seed
	for _, st := range e.nodes {
		st.rng.SetState(det.HashKeys(seed, int64(st.id), int64(st.rng.State())))
	}
	return nil
}

func (e *Engine) restore(s EngineSnapshot) error {
	if len(s.Nodes) != len(e.nodes) {
		return fmt.Errorf("sim: restore: snapshot has %d nodes, engine has %d (rebuild the deployment first)", len(s.Nodes), len(e.nodes))
	}
	cols, rows := e.plane.cols, e.plane.rows
	if s.ShardCols != cols || s.ShardRows != rows {
		return fmt.Errorf("sim: restore: snapshot shard plan %dx%d, engine %dx%d", s.ShardCols, s.ShardRows, cols, rows)
	}
	for i, ns := range s.Nodes {
		if ns.ID != e.nodes[i].id {
			return fmt.Errorf("sim: restore: node %d carries id %d", i, ns.ID)
		}
	}
	e.round = s.Round
	e.stats = s.Stats
	for i, ns := range s.Nodes {
		st := e.nodes[i]
		st.rng.SetState(ns.RNG)
		st.wake = 0
		e.info[st.id] = NodeInfo{ID: st.id, At: geo.Point{X: ns.X, Y: ns.Y}, Alive: ns.Alive}
		if sn, ok := st.mover.(Snapshotter); ok {
			if err := sn.RestoreState(ns.Mover); err != nil {
				return fmt.Errorf("sim: restore: node %d mover: %w", st.id, err)
			}
		} else if len(ns.Mover) > 0 {
			return fmt.Errorf("sim: restore: node %d has mover state but its mover is not a Snapshotter", st.id)
		}
		if sn, ok := st.node.(Snapshotter); ok {
			if err := sn.RestoreState(ns.State); err != nil {
				return fmt.Errorf("sim: restore: node %d state: %w", st.id, err)
			}
		} else if len(ns.State) > 0 {
			return fmt.Errorf("sim: restore: node %d has node state but its node is not a Snapshotter", st.id)
		}
	}
	// Everyone alive comes back with the radio on: no wake files, and the
	// awake list is the alive list. Who moves is recounted with it.
	e.alive = e.alive[:0]
	e.moving = 0
	clear(e.on)
	for _, st := range e.nodes {
		if e.info[st.id].Alive {
			e.alive = append(e.alive, st)
			e.on[st.id>>6] |= 1 << (st.id & 63)
			if st.mover != nil {
				e.moving++
			}
		}
	}
	e.dirty = false
	e.awake, e.asleep = e.alive, 0
	clear(e.wakes)
	e.slept.Store(false)
	e.crash = make(map[Round][]NodeID, len(s.CrashRounds))
	for i, r := range s.CrashRounds {
		e.crash[r] = append([]NodeID(nil), s.CrashIDs[i]...)
	}
	return nil
}

// faultDigest fingerprints the registered faults so Restore can detect a
// rebuild with a different adversary configuration. Faults that implement
// the wire AppendTo half contribute their canonical encoding; others
// contribute only their count position. The digest guards against
// configuration drift — it is validation, not state, since faults in this
// stack are pure functions of (config, round).
func (e *Engine) faultDigest() uint64 {
	if len(e.faults) == 0 {
		return 0
	}
	dg := wire.NewDigest()
	buf := wire.GetBuf()
	b := *buf
	for _, f := range e.faults {
		b = b[:0]
		if enc, ok := f.(wireEncoder); ok {
			b = enc.AppendTo(b)
		}
		dg = dg.FoldUint64(uint64(len(b))).FoldBytes(b)
	}
	*buf = b
	wire.PutBuf(buf)
	return uint64(dg)
}
