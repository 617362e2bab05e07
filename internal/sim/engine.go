package sim

import (
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"vinfra/internal/det"
	"vinfra/internal/geo"
	"vinfra/internal/mobility"
)

// Engine drives a set of nodes through synchronous slotted rounds against a
// Medium. The zero value is not usable; construct with NewEngine.
//
// Per-node state has one copy and one owner. Position and liveness live
// only in info, the NodeID-indexed view the medium reads: mobility writes
// info[id].At in place, Crash clears info[id].Alive, and Position, Alive,
// Env.Location, snapshots and the shard partition all read it back. A
// node's waypoint model and its leg through it live in legs, a second
// NodeID-indexed column with no pointers in it, and the mobility phase
// reads little else: it walks ids, the alive NodeIDs, and gathers each
// one's leg and position — 68 bytes a node-step — and reaches a node's
// nodeState only when the node turns and draws from its stream. On
// amd64 a packed SSE2 kernel (move_amd64.s) steps two neighbours on the
// alive list at once while both are steady under one model; the loop's
// scalar step, with the steady leg's arithmetic inlined, takes every pair
// the kernel declines — a turn, a static node, two models, a NaN — and is
// the one definition of a step, which the kernel repeats operation for
// operation. Everything else the round loop touches per node (the Node, its
// random stream, when its radio comes back on) is a nodeState, stored by
// value in slabs so a walk over the awake list in NodeID order reads memory
// front to back.
//
// A node whose radio is off (Env.SleepUntil) stays on the alive list — it
// still moves, and it still counts as alive — but leaves the awake list,
// which is what Transmit, Receive, the shard partition and every medium's
// receiver list walk: a round costs a sleeper its mobility step and nothing
// else. A listening node (Env.ListenUntil) stays on the awake list, so its
// reception is computed, but the Transmit and Receive loops pass it by with
// one compare unless what it hears is not empty.
type Engine struct {
	seed     int64
	parallel bool
	workers  int

	round Round
	// slab is the tail of the current nodeState slab. Attach carves the
	// next node off its front and, when it is empty, allocates a new slab
	// half the size of everything attached so far (16 to 4096 entries), or
	// the n nodes a Reserve(n) announced, so small worlds stay small, 100k
	// nodes are one allocation or a few dozen, and a *nodeState never moves
	// — nodes, alive and every Env handed to a node stay valid across
	// mid-run Attach.
	slab   []nodeState
	nodes  []*nodeState // indexed by NodeID
	alive  []*nodeState // alive nodes in NodeID order; see compactAlive
	ids    []int32      // the NodeIDs of alive, entry for entry: what mobility walks
	dirty  bool         // a node died since alive was last compacted
	moving int          // alive nodes with a waypoint model; see move
	// legs is indexed by NodeID: each node's leg and which model it roams
	// under. It is never compacted, so a dead mover's leg stays for the
	// snapshot. models holds the waypoint models attached so far, shared
	// and only read; a legSlot's model k names models[k-1].
	legs   []legSlot
	models []*mobility.RandomWaypoint
	crash  map[Round][]NodeID
	hooks  []RoundHook
	faults []Fault
	stats  Stats

	// awake lists the alive nodes whose radio is on this round, in NodeID
	// order. While nobody sleeps it is alive itself (the same backing array,
	// no copy); otherwise it lives in awakeBuf, which is reused. rouse keeps
	// it current from the bookkeeping below, at a cost that follows what
	// changed rather than the population: one bit and one int32 per node.
	awake    []*nodeState
	awakeBuf []*nodeState
	// on holds one bit per NodeID: set while the node is alive with its radio
	// on. Listing the set bits is how awakeBuf is rebuilt in NodeID order
	// without sorting. sum summarises it, one bit per word of on, set while
	// that word is nonzero, so the listing visits only the words that hold
	// an awake node — what is alive — plus one word of sum per 4096 NodeIDs,
	// not one word per 64 of every node ever attached.
	on  []uint64
	sum []uint64
	// asleep counts the alive nodes whose bit is clear. Each sits in the wake
	// file of the round its radio comes back on: wakes is a ring of the
	// files' first nodes, the file due in round d at d mod len(wakes) (-1
	// none), and next, indexed by NodeID and grown when somebody first
	// sleeps, chains the rest (-1 ends a file), so filing a node or popping a
	// round's file copies nothing and hashes nothing. The ring holds a power
	// of two of rounds, as many as the farthest wake round asked for, up to
	// maxWakeRing; a node that sleeps farther is filed in the ring's last
	// round and filed again when that comes.
	asleep int
	wakes  []int32
	next   []int32
	// slept says some awake node declared SleepUntil since the last rouse
	// (SleepUntil runs on worker goroutines, hence the atomic); relist, that
	// a bit changed outside rouse — a node attached, or died awake.
	slept  atomic.Bool
	relist bool

	// Reusable per-round buffers: the steady-state round loop allocates
	// nothing of its own.
	info    []NodeInfo // indexed by NodeID: the medium's view and the only copy of position and liveness
	txs     []Transmission
	txSlots []Message // fanned-out Transmit scratch, positional over awake

	// Cached fan-out closures and their per-round inputs. The worker
	// runtime hands the callback to helper goroutines, which forces it
	// onto the heap, so building the closures fresh every round would
	// allocate; instead they are built once and read the current round
	// (and receptions) from these fields.
	curRound Round
	curRxs   []Reception // this round's receptions, positional over awake
	hookRxs  []Reception // the NodeID-indexed copy hooks are handed; see RoundHook
	mobFn    func(w, lo, hi int)
	txFn     func(w, lo, hi int)
	rxFn     func(w, lo, hi int)

	// pool is the persistent worker runtime behind every fan-out wider than
	// one chunk: started by the first phase that has a second chunk's worth
	// of work (see width) — never, in a world that stays below that — torn
	// down by Close and Snapshot, and rebuilt lazily if the engine steps on.
	pool *workerPool

	// partTime accumulates wall time spent in the region-shard partition
	// pass, rouseWork the entries rouse has looked at (list entries, filed
	// nodes, bitmap words — rouseWords is the last of those alone, and
	// relists the listings of the awake list that read them), handoffs the
	// chunks given to a helper goroutine. They are measurements, not state: never part of
	// Stats or a snapshot, so determinism contracts are unaffected.
	partTime   time.Duration
	rouseWork  int
	rouseWords int
	relists    int
	handoffs   int
	// packed counts the node-steps the packed kernel took. moveChunk runs
	// on helper goroutines, so each chunk adds its count once, atomically;
	// so do the Transmit and Receive chunks, which count the listeners they
	// passed by (muted) and those a reception woke. heard counts the
	// receptions computed, one per awake node a round.
	packed atomic.Int64
	muted  atomic.Int64
	woken  atomic.Int64
	heard  int

	// plane propagates each round's transmissions: NewEngine's medium as
	// its one shard, or the WithRegionShards grid of per-shard mediums with
	// a boundary-band halo exchange.
	plane shardPlane
}

// RoundHook observes a completed round: the transmissions that occurred and
// the receptions delivered, indexed by NodeID over every node ever attached
// — the entry of a node that was asleep or dead this round is the empty
// reception (the zero value), since nothing was computed for it. Receptions
// exist only for the awake nodes, in awake-list order, so an engine with a
// hook registered spreads them out into that NodeID-indexed slice after
// every round with a sleeper or a dead node in it: O(attached) a round,
// which an engine without hooks never pays. Hooks run sequentially after
// delivery; they may read the values but must not mutate them, and the
// slices are only valid for the duration of the call — the engine and
// medium reuse them the next round, so copy anything worth keeping.
type RoundHook func(r Round, txs []Transmission, rxs []Reception)

// Control is the narrow engine surface handed to a Fault: enough to observe
// the deployment and to crash, relocate or schedule failures, but not to
// drive rounds. NodeIDs are dense in [0, NumNodes()): NumNodes is for ids —
// what the next Attach will return, how long a NodeID-indexed table must be
// — and AliveIDs is for walks, so a fault that visits every alive node costs
// what is alive, not what was ever attached.
type Control interface {
	NumNodes() int
	Alive(id NodeID) bool
	AliveCount() int
	// AliveIDs returns the nodes alive at the call, ascending, in buf[:0]
	// (grown if it is too short; nil is fine). Crashing or attaching during
	// the walk does not change the slice already returned.
	AliveIDs(buf []NodeID) []NodeID
	Position(id NodeID) geo.Point
	Crash(id NodeID)
	CrashAt(id NodeID, r Round)
	Leave(id NodeID)
	SetPosition(id NodeID, p geo.Point)
}

// Fault is an engine-level adversary: the engine consults every registered
// fault at the start of each round, before scheduled crashes and mobility,
// so a fault's crashes and relocations take effect in the round they strike.
// Faults run sequentially in registration order on the engine's goroutine
// (never concurrently), so a deterministic Strike keeps the whole run
// deterministic; implementations in internal/faults derive all randomness
// from (seed, round, node) hashes. A Strike may also attach new nodes
// through an Engine reference it closed over — equivalent to attaching
// between rounds, the mid-run join path the churn experiments already use.
type Fault interface {
	Strike(r Round, ctl Control)
}

// Stats accumulates engine-level measurements used by the experiment
// harness (the abstract cost model of Theorem 14).
type Stats struct {
	Rounds         int // rounds executed
	Transmissions  int // total broadcast attempts
	MaxMessageSize int // largest accounted message size seen
	TotalBytes     int // sum of accounted message sizes
	// HaloTransmissions counts boundary-band transmission copies handed to
	// neighboring shards by the region-sharded engine (zero on the
	// single-medium path) — the cross-shard traffic a distributed runner
	// would put on the wire.
	HaloTransmissions int
}

// nodeState is what the engine keeps per node besides its NodeInfo entry
// and its legSlot: the protocol endpoint, its random stream, when its radio
// comes back on and until when it only listens, held by value in an Engine
// slab. It is also the node's Env — the handle reads identity and the
// stream from itself and the position from the engine's info slice, so a
// node costs one slab entry and no further heap objects.
//
// The two rounds are int32s sharing one word, which keeps the entry at 48
// bytes: a round past math.MaxInt32 is held as math.MaxInt32 (round32),
// which can only call a node before it asked to be, never after.
type nodeState struct {
	id   NodeID
	eng  *Engine
	node Node
	rng  det.Stream
	wake int32 // the node's radio is off in every round before this one
	// listen: in every round before this one the node is not asked to
	// Transmit, and is handed only a reception that is not empty
	listen int32
}

// round32 is r as a nodeState holds it.
func round32(r Round) int32 {
	return int32(min(r, math.MaxInt32))
}

// legSlot is a node's entry in the engine's legs column: its leg, and the
// model it roams under as an index into Engine.models, 0 for a static node.
// It holds no pointer, so the garbage collector never scans the column, and
// it is 32 bytes, which the packed kernel indexes by shifting.
type legSlot struct {
	leg   mobility.Leg
	model int32
}

func (st *nodeState) ID() NodeID          { return st.id }
func (st *nodeState) Location() geo.Point { return st.eng.info[st.id].At }
func (st *nodeState) Intn(n int) int      { return st.rng.Intn(n) }
func (st *nodeState) Float64() float64    { return st.rng.Float64() }

// SleepUntil implements Env. The engine's round counter already names the
// next round while Transmit and Receive run, and the node is awake then
// unless told otherwise, so a round up to it asks for nothing; neither does
// one before a wake round already declared.
func (st *nodeState) SleepUntil(r Round) {
	e := st.eng
	if r <= e.round || r <= Round(st.wake) || sleepOff {
		return
	}
	st.wake = round32(r)
	// The load keeps the common case — already set, by the hundred thousand
	// clients that fall asleep in the same round — to a plain read of a
	// shared line instead of a store to it.
	if !e.slept.Load() {
		e.slept.Store(true)
	}
}

// ListenUntil implements Env. Like SleepUntil, a round not after the one
// the engine's counter names asks for nothing, and neither does one before
// a listening round already declared; unlike it, the node stays on the
// awake list, and the engine clears the field before the Receive a
// reception wakes it for, so that the node plans again.
func (st *nodeState) ListenUntil(r Round) {
	if r <= st.eng.round || r <= Round(st.listen) || sleepOff {
		return
	}
	st.listen = round32(r)
}

// sleepOff makes SleepUntil and ListenUntil no-ops, which is how the engine
// behaved before nodes could sleep or listen. Only tests set it
// (export_test.go): it is the oracle the sleep tests compare against, not a
// mode anyone can select.
var sleepOff bool

var _ Control = (*Engine)(nil)

// Option configures an Engine.
type Option func(*Engine)

// WithSeed sets the master seed from which per-node random sources are
// derived. The default seed is 1.
func WithSeed(seed int64) Option {
	return func(e *Engine) { e.seed = seed }
}

// WithWorkers lets each round's mobility, Transmit and Receive (and, with
// WithRegionShards, the partition and the shard mediums' Deliver) fan out
// across the engine's persistent worker runtime, one contiguous range of the
// alive or awake list per chunk, in at most n chunks; n <= 0 means
// runtime.GOMAXPROCS(0). n is an upper bound, not a demand: a chunk is
// handed to a helper goroutine only when it is worth a hand-off (see
// width), so a phase with less work than that runs on Step's goroutine, and
// a world that never has more never starts a helper — below the grain a
// parallel engine is the sequential path. The width is decided once per
// phase, from the number of nodes the phase touches, and results never
// depend on it: nodes share no state, per-node randomness is keyed to the
// node, and whatever the chunks produce is merged in NodeID order, so
// output is byte-identical to a sequential run at every width. A Medium's
// Deliver stays on one goroutine: what parallelises propagation is
// WithRegionShards, whose shard mediums deliver concurrently under this
// option.
func WithWorkers(n int) Option {
	return func(e *Engine) {
		e.parallel = true
		e.workers = n
	}
}

// NewEngine returns an engine that propagates messages through medium.
func NewEngine(medium Medium, opts ...Option) *Engine {
	e := &Engine{
		seed:  1,
		crash: make(map[Round][]NodeID),
		// Room for the one model a world mostly has, so the first roaming
		// Attach allocates nothing a static one would not.
		models: make([]*mobility.RandomWaypoint, 0, 1),
		plane:  shardPlane{mediums: []Medium{medium}, infos: make([][]NodeInfo, 1)},
	}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// Attach adds a node at position pos roaming under the waypoint model wp
// (nil for a static node) and returns its ID. The engine keeps wp and only
// reads it, so every node that roams under one model shares it, and the
// caller must not change it afterwards; the node's leg through it is the
// engine's. The build function receives the node's environment handle; it
// is invoked before Attach returns. Nodes may be attached mid-run (the join
// scenario of Section 4.3). NodeIDs are int32 to the mobility phase, so
// Attach panics past math.MaxInt32 nodes.
func (e *Engine) Attach(pos geo.Point, wp *mobility.RandomWaypoint, build func(Env) Node) NodeID {
	id := NodeID(len(e.nodes))
	if int64(id) > math.MaxInt32 {
		panic("sim: Attach past math.MaxInt32 nodes")
	}
	if len(e.slab) == 0 {
		e.slab = make([]nodeState, min(max(len(e.nodes)/2, 16), 4096))
	}
	st := &e.slab[0]
	e.slab = e.slab[1:]
	*st = nodeState{eng: e, id: id}
	st.rng.Reseed(e.seed, int64(id))
	// info first: the Env answers Location from it, also inside build.
	e.info = append(e.info, NodeInfo{ID: id, At: pos, Alive: true})
	e.legs = append(e.legs, legSlot{model: e.modelIndex(wp)})
	st.node = build(st)
	if st.node == nil {
		panic("sim: Attach build function returned nil Node")
	}
	e.nodes = append(e.nodes, st)
	e.alive = append(e.alive, st)
	e.ids = append(e.ids, int32(id))
	if wp != nil {
		e.moving++
	}
	if int(id)>>6 == len(e.on) {
		e.on = append(e.on, 0)
		if int(id)>>12 == len(e.sum) {
			e.sum = append(e.sum, 0)
		}
	}
	e.radioOn(id)
	e.relist = true
	return id
}

// modelIndex returns wp's index in a legSlot, adding it to models the first
// time it is seen; nil is 0, static. A world has a handful of models, and
// consecutive attaches mostly share one, so the search starts at the last.
func (e *Engine) modelIndex(wp *mobility.RandomWaypoint) int32 {
	if wp == nil {
		return 0
	}
	for k := len(e.models) - 1; k >= 0; k-- {
		if e.models[k] == wp {
			return int32(k + 1)
		}
	}
	e.models = append(e.models, wp)
	return int32(len(e.models))
}

// Reserve makes room for n more nodes: it grows every per-node slice Attach
// appends to so n appends fit, and carves the next slab n entries long, so
// attaching them grows nothing. A world built with and without it is the
// same world; Reserve is what keeps building a large one from copying its
// slices up through every doubling.
func (e *Engine) Reserve(n int) {
	if n <= 0 || reserveOff {
		return
	}
	e.info = slices.Grow(e.info, n)
	e.legs = slices.Grow(e.legs, n)
	e.nodes = slices.Grow(e.nodes, n)
	e.alive = slices.Grow(e.alive, n)
	e.ids = slices.Grow(e.ids, n)
	words := (len(e.nodes) + n + 63) >> 6
	e.on = slices.Grow(e.on, max(words-len(e.on), 0))
	e.sum = slices.Grow(e.sum, max((words+63)>>6-len(e.sum), 0))
	if len(e.slab) < n {
		e.slab = make([]nodeState, n)
	}
}

// reserveOff makes Reserve a no-op, so a world grows its slices as Attach
// appends. Only tests set it (export_test.go): it is the oracle that says
// Reserve changes nothing a run can see, not a mode anyone can select.
var reserveOff bool

// Crash fails node id immediately: it stops transmitting and receiving from
// the next round onward. Crashing an already-crashed node is a no-op.
func (e *Engine) Crash(id NodeID) {
	if !e.info[id].Alive {
		return
	}
	e.info[id].Alive = false
	e.dirty = true
	if e.legs[id].model != 0 {
		e.moving--
	}
	if e.on[id>>6]&(1<<(id&63)) != 0 {
		e.radioOff(id)
		e.relist = true
	} else {
		e.asleep-- // its wake file skips it when it comes due
	}
}

// CrashAt schedules node id to crash at the start of round r. A round at or
// before the engine's current round applies the crash immediately — for
// r equal to the current round that is exactly what the scheduled path
// would do (crashes apply before the round's mobility and transmissions),
// and a round already in the past must not be dropped silently, which is
// what the schedule map alone used to do with late crash requests from
// churn generators.
func (e *Engine) CrashAt(id NodeID, r Round) {
	if r <= e.round {
		e.Crash(id)
		return
	}
	e.crash[r] = append(e.crash[r], id)
}

// Leave removes a node from the emulation (a mobile device departing a
// region). Engine semantics are identical to Crash; the distinct name keeps
// call sites honest about intent.
func (e *Engine) Leave(id NodeID) {
	e.Crash(id)
}

// Alive reports whether node id has not crashed or left.
func (e *Engine) Alive(id NodeID) bool {
	return e.info[id].Alive
}

// AliveCount returns the number of alive nodes.
func (e *Engine) AliveCount() int {
	e.compactAlive()
	return len(e.alive)
}

// AliveIDs implements Control off ids, the alive list's NodeIDs in order;
// nodes that died since it was last compacted — earlier in this round's
// faults — are skipped.
func (e *Engine) AliveIDs(buf []NodeID) []NodeID {
	buf = buf[:0]
	for _, id := range e.ids {
		if e.info[id].Alive {
			buf = append(buf, NodeID(id))
		}
	}
	return buf
}

// compactAlive drops dead nodes from the alive list (preserving NodeID
// order) once any have died. Every per-round loop walks this list, so a
// long churn run's cost tracks the population that is actually alive
// instead of every node ever attached.
func (e *Engine) compactAlive() {
	if !e.dirty {
		return
	}
	live, ids := e.alive[:0], e.ids[:0]
	for _, st := range e.alive {
		if e.info[st.id].Alive {
			live = append(live, st)
			ids = append(ids, int32(st.id))
		}
	}
	for i := len(live); i < len(e.alive); i++ {
		e.alive[i] = nil // release the dead node for GC
	}
	e.alive, e.ids = live, ids
	e.dirty = false
}

// rouse brings the awake list up to date for round r: nodes that declared
// SleepUntil since the last call leave it, each filed under its wake round,
// and the file that comes due in r rejoins it. The work is what changed —
// one pass over the previous list when somebody fell asleep, the due file,
// and, to list the result in NodeID order, the words of on that hold an
// awake node plus one word of sum per 4096 nodes ever attached — never a
// walk of the alive list; and nothing at all, the list being alive itself,
// while nobody sleeps. It runs after compactAlive.
func (e *Engine) rouse(r Round) {
	if e.asleep == 0 {
		// awake was alive itself, which Attach and compactAlive have since
		// resliced; or the last sleeper died, and every alive node is on.
		e.awake = e.alive
	}
	changed := e.relist
	e.relist = false
	if e.slept.Load() {
		e.slept.Store(false)
		e.rouseWork += len(e.awake)
		if n := len(e.nodes) - len(e.next); n > 0 {
			e.next = append(e.next, make([]int32, n)...)
		}
		// Neighbours mostly share a wake round: keep their file open across
		// the pass and touch the ring only when the round changes.
		to, open, head := Round(-1), -1, int32(-1)
		for _, st := range e.awake {
			wake := Round(st.wake)
			if wake <= r || !e.info[st.id].Alive {
				continue
			}
			if wake != to {
				if open >= 0 {
					e.wakes[open] = head
				}
				to, open = wake, e.fileOf(r, wake)
				head = e.wakes[open]
			}
			e.next[st.id], head = head, int32(st.id)
			e.radioOff(st.id)
			e.asleep++
			changed = true
		}
		if open >= 0 {
			e.wakes[open] = head
		}
	}
	if len(e.wakes) > 0 {
		due := int(r) & (len(e.wakes) - 1)
		id := e.wakes[due]
		e.wakes[due] = -1
		for id >= 0 {
			e.rouseWork++
			next := e.next[id]
			if e.info[id].Alive {
				// Only a ring at its longest files a node early, in its last
				// round: only then is the node's own wake round read.
				if len(e.wakes) == maxWakeRing && Round(e.nodes[id].wake) > r {
					f := e.fileOf(r, Round(e.nodes[id].wake))
					e.next[id], e.wakes[f] = e.wakes[f], id
				} else {
					e.radioOn(NodeID(id))
					e.asleep--
					changed = true
				}
			}
			id = next
		}
	}
	switch {
	case e.asleep == 0:
		e.awake = e.alive
	case changed:
		buf := e.awakeBuf[:0]
		if n := len(e.alive) - e.asleep; cap(buf) < n {
			// Sized to the list once, not grown into: at a million nodes the
			// doublings on the way there are garbage worth a GC cycle.
			buf = make([]*nodeState, 0, n+n/8)
		}
		words := len(e.sum)
		for s, sw := range e.sum {
			for ; sw != 0; sw &= sw - 1 {
				w := s<<6 | bits.TrailingZeros64(sw)
				words++
				for word := e.on[w]; word != 0; word &= word - 1 {
					buf = append(buf, e.nodes[w<<6|bits.TrailingZeros64(word)])
				}
			}
		}
		e.awake, e.awakeBuf = buf, buf
		e.rouseWork += words
		e.rouseWords += words
		e.relists++
	}
}

// maxWakeRing is the most rounds the wake ring holds: 256 KB of file heads.
const maxWakeRing = 1 << 16

// fileOf returns the ring entry of the file a node asleep until round wake
// joins in round r, growing the ring to hold wake if it can: wake's own
// entry, or, beyond the longest ring, the entry of the ring's last round.
func (e *Engine) fileOf(r, wake Round) int {
	if wake-r >= Round(len(e.wakes)) {
		if len(e.wakes) < maxWakeRing {
			e.growWakes(r, wake-r)
		}
		wake = min(wake, r+Round(len(e.wakes))-1)
	}
	return int(wake) & (len(e.wakes) - 1)
}

// growWakes doubles the ring, from 64 rounds, until it holds round r+d or
// is maxWakeRing long, moving the pending files: in round r, before its
// file is popped, each is due in one of rounds r..r+len(wakes)-1, which
// its entry tells apart.
func (e *Engine) growWakes(r, d Round) {
	n := max(len(e.wakes), 64)
	for Round(n) <= d && n < maxWakeRing {
		n *= 2
	}
	ring := make([]int32, n)
	for i := range ring {
		ring[i] = -1
	}
	for i, head := range e.wakes {
		if head >= 0 {
			due := r + Round((i-int(r))&(len(e.wakes)-1))
			ring[int(due)&(n-1)] = head
		}
	}
	e.wakes = ring
}

// radioOn sets node id's bit in on, and its word's in sum.
func (e *Engine) radioOn(id NodeID) {
	w := id >> 6
	e.on[w] |= 1 << (id & 63)
	e.sum[w>>6] |= 1 << (w & 63)
}

// radioOff clears node id's bit in on, and its word's in sum once the word
// holds no awake node.
func (e *Engine) radioOff(id NodeID) {
	w := id >> 6
	if e.on[w] &^= 1 << (id & 63); e.on[w] == 0 {
		e.sum[w>>6] &^= 1 << (w & 63)
	}
}

// NumNodes returns the total number of nodes ever attached.
func (e *Engine) NumNodes() int {
	return len(e.nodes)
}

// Position returns the current position of node id.
func (e *Engine) Position(id NodeID) geo.Point {
	return e.info[id].At
}

// SetPosition teleports node id (used by tests and by churn generators that
// respawn nodes in new regions).
func (e *Engine) SetPosition(id NodeID, p geo.Point) {
	e.info[id].At = p
}

// Round returns the next round to execute.
func (e *Engine) Round() Round {
	return e.round
}

// OnRound registers a hook observing every completed round.
func (e *Engine) OnRound(h RoundHook) {
	e.hooks = append(e.hooks, h)
}

// AddFault registers an engine-level adversary consulted at the start of
// every round, in registration order. See Fault.
func (e *Engine) AddFault(f Fault) {
	if f == nil {
		panic("sim: AddFault called with nil Fault")
	}
	e.faults = append(e.faults, f)
}

// Stats returns a copy of the accumulated engine statistics.
func (e *Engine) Stats() Stats {
	return e.stats
}

// Run executes n rounds.
func (e *Engine) Run(n int) {
	for i := 0; i < n; i++ {
		e.Step()
	}
}

// Step executes a single round, the same sequence for every engine
// configuration: faults, scheduled crashes, waking and sleeping, mobility,
// transmission fan-out, propagation through the medium (or the region
// shards' mediums), reception fan-out, stats and hooks.
//
// The steady-state round loop allocates nothing: the NodeInfo view, the
// transmission list, the awake list with its wake files and the fanned-out
// Transmit slots are engine-owned buffers reused across rounds. Mobility
// walks the alive list, so dead nodes cost nothing after the round they die
// in; everything else walks the awake list, so a node that has called
// SleepUntil costs its mobility step only: it is not called, not binned
// into a shard, and not among the receivers any medium is handed. One that
// has called ListenUntil costs its reception and a compare in each of the
// Transmit and Receive walks, and is called only for what it hears. The
// receptions come back positional over the awake list and are handed out by
// position; only a registered RoundHook has them spread out by NodeID.
func (e *Engine) Step() {
	r := e.round

	// Faults strike first, before the round counter advances: anything
	// they crash (or CrashAt for r, applied immediately) is dead before
	// this round's mobility and transmissions, anything they attach
	// participates from this round on, and CrashAt(id, r+1) schedules for
	// the next round rather than collapsing into an immediate crash.
	for _, f := range e.faults {
		f.Strike(r, e)
	}

	e.round++
	e.curRound = r

	for _, id := range e.crash[r] {
		e.Crash(id)
	}
	delete(e.crash, r)
	e.compactAlive()
	e.rouse(r)

	e.move()

	txs := e.collectTransmissions(r)
	rxs := e.plane.propagate(e, r, txs)
	e.deliver(r, rxs)

	e.stats.Rounds++
	e.stats.Transmissions += len(txs)
	e.stats.HaloTransmissions += e.plane.halo
	for _, tx := range txs {
		sz := MessageSize(tx.Msg)
		e.stats.TotalBytes += sz
		if sz > e.stats.MaxMessageSize {
			e.stats.MaxMessageSize = sz
		}
	}
	if len(e.hooks) > 0 {
		byID := e.byNodeID(rxs)
		for _, h := range e.hooks {
			h(r, txs, byID)
		}
	}
}

// byNodeID spreads the round's receptions, positional over the awake list,
// out into the NodeID-indexed slice a RoundHook is promised; nodes that were
// not awake get the empty reception. With every attached node awake the
// position is the NodeID and rxs is that slice already.
func (e *Engine) byNodeID(rxs []Reception) []Reception {
	n := len(e.nodes)
	if len(e.awake) == n {
		return rxs
	}
	if cap(e.hookRxs) < n {
		e.hookRxs = make([]Reception, n, n+n/8)
	}
	out := e.hookRxs[:n]
	clear(out)
	for i, st := range e.awake {
		out[st.id] = rxs[i]
	}
	return out
}

// move is the mobility phase: every alive node with a waypoint model moves,
// asleep or not — where a sleeper wakes up is part of the run. Per-node RNG
// call order within a round is fixed (mobility, then Transmit), so this is
// deterministic at any width. On a region-sharded plane the same walk also
// takes each chunk's bounding box for the partition, so it visits every
// alive node whether or not anything moves; on the one-shard plane a world
// whose alive nodes all stand still skips the walk.
func (e *Engine) move() {
	if e.moving == 0 && len(e.plane.mediums) == 1 {
		return
	}
	k := e.width(len(e.ids))
	if len(e.plane.mediums) > 1 {
		e.plane.boxes(k)
	}
	if e.mobFn == nil {
		e.mobFn = e.moveChunk
	}
	e.runChunks(len(e.ids), k, e.mobFn)
}

// moveChunk is the mobility loop over ids[lo:hi], the one both planes run.
// It hands the chunk to the packed kernel (stepPairs: two nodes per SSE2
// instruction on amd64, none elsewhere), which steps steady pairs until it
// declines one; the scalar step below then takes that pair — or the
// chunk's odd last node — and hands the rest back. Both read a node's leg
// from the legs column and its position from info, by its NodeID: the
// walk touches no nodeState but a turning node's, for its stream. The
// scalar step is the one definition of a round: a steady leg is Leg.Dist
// and RandomWaypoint.Ahead, which the compiler inlines here and the kernel
// repeats operation for operation; only a turn, where a node arrives and
// draws its next destination from its own stream, is a call. With two or
// more shards the loop also stretches chunk w's bounding box over every
// alive node it walks, moved or not — the one time a round has each of
// those positions in hand — in alive order, the kernel's pairs included,
// and partition merges the boxes.
func (e *Engine) moveChunk(w, lo, hi int) {
	b := geo.Rect{Min: geo.Point{X: math.Inf(1), Y: math.Inf(1)}, Max: geo.Point{X: math.Inf(-1), Y: math.Inf(-1)}}
	var box *geo.Rect
	if len(e.plane.mediums) > 1 {
		box = &b
	}
	ids, legs, info := e.ids[lo:hi], e.legs, e.info
	packed := 0
	for i := 0; i < len(ids); {
		if !kernelOff {
			n := stepPairs(ids[i:], legs, info, e.models, box)
			packed += n
			i += n
		}
		for end := min(i+2, len(ids)); i < end; i++ {
			id := ids[i]
			at := &info[id].At
			if ls := &legs[id]; ls.model != 0 {
				wp := e.models[ls.model-1]
				if next, ok := wp.Ahead(&ls.leg, *at, ls.leg.Dist(*at)); ok {
					*at = next
				} else {
					*at = wp.Turn(&ls.leg, *at, e.nodes[id].rng.Intn)
				}
			}
			if box != nil {
				b = stretch(b, *at, *at)
			}
		}
	}
	if packed > 0 {
		e.packed.Add(int64(packed))
	}
	if box != nil {
		e.plane.bounds[w] = b
	}
}

// kernelOff makes every moveChunk step every node on the scalar path, as if
// the packed kernel declined every pair. Only tests set it (export_test.go):
// it is the oracle the kernel is held to, not a mode anyone can select.
var kernelOff bool

// collectTransmissions calls Transmit on every awake node that is not
// listening and returns the non-nil results in NodeID order. Fanned out,
// chunks write per-position slots that are then merged over the awake list,
// so the transmission list is identical to the one-chunk collection, which
// appends as it goes and never touches the slots; a listener's slot stays
// nil. The returned slice is engine-owned and valid until the next round.
func (e *Engine) collectTransmissions(r Round) []Transmission {
	e.txs = e.txs[:0]
	n := len(e.awake)
	e.heard += n
	k := e.width(n)
	if k == 1 {
		muted := 0
		for _, st := range e.awake {
			if Round(st.listen) > r {
				muted++
				continue
			}
			if m := st.node.Transmit(r); m != nil {
				e.txs = append(e.txs, Transmission{Sender: st.id, From: e.info[st.id].At, Msg: m})
			}
		}
		if muted > 0 {
			e.muted.Add(int64(muted))
		}
		return e.txs
	}
	if len(e.txSlots) < n {
		// Headroom, as rouse sizes the awake list: an exact fit would be
		// reallocated (and cleared) after every Attach.
		e.txSlots = make([]Message, n+n/8)
	}
	if e.txFn == nil {
		e.txFn = func(_, lo, hi int) {
			r, slots, muted := e.curRound, e.txSlots[lo:hi], 0
			for i, st := range e.awake[lo:hi] {
				if Round(st.listen) > r {
					muted++
					continue
				}
				slots[i] = st.node.Transmit(r)
			}
			if muted > 0 {
				e.muted.Add(int64(muted))
			}
		}
	}
	e.runChunks(n, k, e.txFn)
	for i, st := range e.awake {
		if m := e.txSlots[i]; m != nil {
			e.txs = append(e.txs, Transmission{Sender: st.id, From: e.info[st.id].At, Msg: m})
			e.txSlots[i] = nil // drop the reference for GC
		}
	}
	return e.txs
}

// deliver hands every awake node its reception: rxs[i] is awake[i]'s. A
// listener gets it only when it holds a message or a collision indication,
// and then stops listening.
func (e *Engine) deliver(r Round, rxs []Reception) {
	e.curRxs = rxs
	if e.rxFn == nil {
		e.rxFn = func(_, lo, hi int) {
			r, rxs, woken := e.curRound, e.curRxs[lo:hi], 0
			for i, st := range e.awake[lo:hi] {
				if Round(st.listen) > r {
					if len(rxs[i].Msgs) == 0 && !rxs[i].Collision {
						continue
					}
					st.listen = 0
					woken++
				}
				st.node.Receive(r, rxs[i])
			}
			if woken > 0 {
				e.woken.Add(int64(woken))
			}
		}
	}
	e.runChunks(len(e.awake), e.width(len(e.awake)), e.rxFn)
	e.curRxs = nil
}

// fanout returns the most chunks a phase may run in: one without
// WithWorkers, else its bound, or GOMAXPROCS.
func (e *Engine) fanout() int {
	switch {
	case !e.parallel:
		return 1
	case e.workers > 0:
		return e.workers
	}
	return runtime.GOMAXPROCS(0)
}

// grain is the least number of nodes a chunk must hold to be worth handing
// to a helper goroutine. Measured on the persistent pool (2 cores): a
// hand-off to a helper that is still warm costs about 0.6 µs a fan-out, to
// one that has parked tens of µs and more (hence spinPolls), while a node's share of a phase is 10–100
// ns — so below a few hundred nodes the hand-off costs more than the chunk
// it moves. At 256 the 196-device storm world runs every phase inline
// (rounds/s +55 % against handing off regardless) and the 100k-device city
// fans out as before. Only tests write it (export_test.go).
var grain = 256

// width is the one place a fan-out's chunk count is decided: as many chunks
// as fanout allows, so long as each gets a grain of the work — the number of
// nodes the phase touches — and one chunk, run inline, otherwise. A phase
// asks once and uses the answer for everything it indexes by chunk.
func (e *Engine) width(work int) int {
	if !e.parallel || work < 2*grain {
		return 1
	}
	return min(e.fanout(), work/grain)
}

// runChunks runs fn over [0, n) in k balanced contiguous chunks (chunk w
// covers [w*n/k, (w+1)*n/k)), k a width no greater than n: inline when k is
// 1, otherwise chunk 0 inline and the rest on the persistent worker runtime,
// started — or restarted wider, had GOMAXPROCS grown since — on first use.
func (e *Engine) runChunks(n, k int, fn func(w, lo, hi int)) {
	if k <= 1 {
		fn(0, 0, n)
		return
	}
	if e.pool != nil && e.pool.width() < k {
		e.Close()
	}
	if e.pool == nil {
		e.pool = newWorkerPool(e.fanout() - 1)
	}
	e.handoffs += k - 1
	e.pool.run(n, k, fn)
}

// Close releases the persistent worker runtime (helper goroutines parked
// between rounds). The engine stays fully usable — the next parallel Step
// lazily builds a fresh pool — so Close is safe to call whenever an engine
// goes idle, and is idempotent. It must not run concurrently with Step.
func (e *Engine) Close() {
	if e.pool != nil {
		e.pool.close()
		e.pool = nil
	}
}

// PartitionTime returns the cumulative wall time spent partitioning nodes
// across region shards (zero at one shard, which partitions nothing). It is
// a measurement for perf reporting — deliberately excluded from Stats and
// snapshots, so determinism comparisons never see it.
func (e *Engine) PartitionTime() time.Duration {
	return e.partTime
}
