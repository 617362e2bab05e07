package sim

import (
	"math/bits"
	"runtime"
	"sync/atomic"
	"time"

	"vinfra/internal/det"
	"vinfra/internal/geo"
)

// Engine drives a set of nodes through synchronous slotted rounds against a
// Medium. The zero value is not usable; construct with NewEngine.
//
// Per-node state has one copy and one owner. Position and liveness live
// only in info, the NodeID-indexed view the medium reads: mobility writes
// info[id].At in place, Crash clears info[id].Alive, and Position, Alive,
// Env.Location, snapshots and the shard partition all read it back.
// Everything else the round loop touches per node (the Node, its Mover and
// its random stream) is a nodeState, stored by value in slabs so a walk
// over the alive list in NodeID order reads memory front to back.
//
// A node whose radio is off (Env.SleepUntil) stays on the alive list — it
// still moves, and it still counts as alive — but leaves the awake list,
// which is what Transmit, Receive, the shard partition and every medium's
// receiver list walk: a round costs a sleeper its mobility step and nothing
// else.
type Engine struct {
	seed     int64
	parallel bool
	workers  int

	round Round
	// slab is the tail of the current nodeState slab. Attach carves the
	// next node off its front and, when it is empty, allocates a new slab
	// half the size of everything attached so far (16 to 4096 entries), so
	// small worlds stay small, 100k nodes are a few dozen allocations, and
	// a *nodeState never moves — nodes, alive and every Env handed to a
	// node stay valid across mid-run Attach.
	slab   []nodeState
	nodes  []*nodeState // indexed by NodeID
	alive  []*nodeState // alive nodes in NodeID order; see compactAlive
	dirty  bool         // a node died since alive was last compacted
	moving int          // alive nodes with a Mover; see move
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
	// without sorting.
	on []uint64
	// asleep counts the alive nodes whose bit is clear. Each sits in the wake
	// file of the round its radio comes back on: wakes maps that round to the
	// file's first node and next, indexed by NodeID and grown when somebody
	// first sleeps, chains the rest (-1 ends a file), so filing a node or
	// popping a round's file copies nothing.
	asleep int
	wakes  map[Round]int32
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
	curRxs   []Reception  // this round's receptions, positional over awake
	hookRxs  []Reception  // the NodeID-indexed copy hooks are handed; see RoundHook
	movers   []*moverRand // one per mobility chunk; see moverRand
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
	// nodes, bitmap words — rouseWords is the last of those alone, the one
	// term that follows the nodes ever attached), handoffs the chunks given
	// to a helper goroutine. They are measurements, not state: never part of
	// Stats or a snapshot, so determinism contracts are unaffected.
	partTime   time.Duration
	rouseWork  int
	rouseWords int
	handoffs   int

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

// nodeState is what the engine keeps per node besides its NodeInfo entry:
// the protocol endpoint, its mobility model and its random stream, held by
// value in an Engine slab. It is also the node's Env — the handle reads
// identity and the stream from itself and the position from the engine's
// info slice, so a node costs one slab entry and no further heap objects.
type nodeState struct {
	eng   *Engine
	id    NodeID
	node  Node
	mover Mover
	rng   det.Stream
	wake  Round // the node's radio is off in every round before this one
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
	if r <= e.round || r <= st.wake || sleepOff {
		return
	}
	st.wake = r
	// The load keeps the common case — already set, by the hundred thousand
	// clients that fall asleep in the same round — to a plain read of a
	// shared line instead of a store to it.
	if !e.slept.Load() {
		e.slept.Store(true)
	}
}

// moverRand is the random source one mobility chunk hands to Mover.Move: a
// closure built once per worker that draws from whichever node's stream the
// worker points it at. Passing st.rng.Intn instead would build a method
// value — a heap allocation — per node per round. Padded to a cache line so
// neighbouring workers retargeting their streams do not share one.
type moverRand struct {
	cur *det.Stream
	rnd func(n int) int
	_   [48]byte
}

// sleepOff makes SleepUntil a no-op, which is how the engine behaved before
// nodes could sleep. Only tests set it (export_test.go): it is the oracle
// the sleep tests compare against, not a mode anyone can select.
var sleepOff bool

var _ Control = (*Engine)(nil)

// Option configures an Engine.
type Option func(*Engine)

// WithSeed sets the master seed from which per-node random sources are
// derived. The default seed is 1.
func WithSeed(seed int64) Option {
	return func(e *Engine) { e.seed = seed }
}

// WithParallel lets each round's mobility, Transmit and Receive (and, with
// WithRegionShards, the partition and the shard mediums' Deliver) fan out
// across the engine's persistent worker runtime, one contiguous range of the
// alive or awake list per chunk. A chunk is handed to a helper goroutine only
// when it is worth a hand-off (see width): a phase with less work than that
// runs on Step's goroutine, and a world that never has more never starts a
// helper — below the grain WithParallel is the sequential path. The width is
// decided once per phase, from the number of nodes the phase touches, and
// results never depend on it: nodes share no state, per-node randomness is
// keyed to the node, and whatever the chunks produce is merged in NodeID
// order, so output is byte-identical to a sequential run at every width. A
// Medium's Deliver stays on one goroutine: what parallelises propagation is
// WithRegionShards, whose shard mediums deliver concurrently under this
// option.
func WithParallel() Option {
	return func(e *Engine) { e.parallel = true }
}

// WithWorkers bounds every WithParallel fan-out — node ranges and region
// shards alike — to n chunks (and implies WithParallel). n <= 0 means the
// default, runtime.GOMAXPROCS(0). It is an upper bound, not a demand: see
// WithParallel for when a phase uses fewer.
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
		wakes: make(map[Round]int32),
		plane: shardPlane{mediums: []Medium{medium}, infos: make([][]NodeInfo, 1)},
	}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// Attach adds a node at position pos with the given mobility model (nil for
// static) and returns its ID. The build function receives the node's
// environment handle; it is invoked before Attach returns. Nodes may be
// attached mid-run (the join scenario of Section 4.3).
func (e *Engine) Attach(pos geo.Point, mover Mover, build func(Env) Node) NodeID {
	id := NodeID(len(e.nodes))
	if len(e.slab) == 0 {
		e.slab = make([]nodeState, min(max(len(e.nodes)/2, 16), 4096))
	}
	st := &e.slab[0]
	e.slab = e.slab[1:]
	*st = nodeState{eng: e, id: id, mover: mover}
	st.rng.Reseed(e.seed, int64(id))
	// info first: the Env answers Location from it, also inside build.
	e.info = append(e.info, NodeInfo{ID: id, At: pos, Alive: true})
	st.node = build(st)
	if st.node == nil {
		panic("sim: Attach build function returned nil Node")
	}
	e.nodes = append(e.nodes, st)
	e.alive = append(e.alive, st)
	if mover != nil {
		e.moving++
	}
	if int(id)>>6 == len(e.on) {
		e.on = append(e.on, 0)
	}
	e.on[id>>6] |= 1 << (id & 63)
	e.relist = true
	return id
}

// Crash fails node id immediately: it stops transmitting and receiving from
// the next round onward. Crashing an already-crashed node is a no-op.
func (e *Engine) Crash(id NodeID) {
	if !e.info[id].Alive {
		return
	}
	e.info[id].Alive = false
	e.dirty = true
	if e.nodes[id].mover != nil {
		e.moving--
	}
	if bit := uint64(1) << (id & 63); e.on[id>>6]&bit != 0 {
		e.on[id>>6] &^= bit
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

// AliveIDs implements Control off the alive list, which is in NodeID order;
// nodes that died since it was last compacted — earlier in this round's
// faults — are skipped.
func (e *Engine) AliveIDs(buf []NodeID) []NodeID {
	buf = buf[:0]
	for _, st := range e.alive {
		if e.info[st.id].Alive {
			buf = append(buf, st.id)
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
	live := e.alive[:0]
	for _, st := range e.alive {
		if e.info[st.id].Alive {
			live = append(live, st)
		}
	}
	for i := len(live); i < len(e.alive); i++ {
		e.alive[i] = nil // release the dead node for GC
	}
	e.alive = live
	e.dirty = false
}

// rouse brings the awake list up to date for round r: nodes that declared
// SleepUntil since the last call leave it, each filed under its wake round,
// and the file that comes due in r rejoins it. The work is what changed —
// one pass over the previous list when somebody fell asleep, the due file,
// and one word per 64 nodes ever attached to list the result in NodeID order
// — never a walk of the alive list; and nothing at all, the list being alive
// itself, while nobody sleeps. It runs after compactAlive.
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
		// the pass and touch the map only when the round changes.
		to, head := Round(-1), int32(-1)
		for _, st := range e.awake {
			if st.wake <= r || !e.info[st.id].Alive {
				continue
			}
			if st.wake != to {
				if head >= 0 {
					e.wakes[to] = head
				}
				to, head = st.wake, -1
				if h, ok := e.wakes[to]; ok {
					head = h
				}
			}
			e.next[st.id], head = head, int32(st.id)
			e.on[st.id>>6] &^= 1 << (st.id & 63)
			e.asleep++
			changed = true
		}
		if head >= 0 {
			e.wakes[to] = head
		}
	}
	if id, ok := e.wakes[r]; ok {
		delete(e.wakes, r)
		for id >= 0 {
			e.rouseWork++
			if e.info[id].Alive {
				e.on[id>>6] |= 1 << (id & 63)
				e.asleep--
				changed = true
			}
			id = e.next[id]
		}
	}
	switch {
	case e.asleep == 0:
		e.awake = e.alive
	case changed:
		e.rouseWork += len(e.on)
		e.rouseWords += len(e.on)
		buf := e.awakeBuf[:0]
		if n := len(e.alive) - e.asleep; cap(buf) < n {
			// Sized to the list once, not grown into: at a million nodes the
			// doublings on the way there are garbage worth a GC cycle.
			buf = make([]*nodeState, 0, n+n/8)
		}
		for w, word := range e.on {
			for ; word != 0; word &= word - 1 {
				buf = append(buf, e.nodes[w<<6|bits.TrailingZeros64(word)])
			}
		}
		e.awake, e.awakeBuf = buf, buf
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
// into a shard, and not among the receivers any medium is handed. The
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

// move is the mobility phase: every alive node with a Mover moves, asleep or
// not — where a sleeper wakes up is part of the run. Per-node RNG call order
// within a round is fixed (Move, then Transmit), so this is deterministic at
// any width. On a region-sharded plane the same walk also takes each chunk's
// bounding box for the partition (shardPlane.mobility), so it visits every
// alive node whether or not anything moves; on the one-shard plane a world
// whose alive nodes all stand still skips the walk.
func (e *Engine) move() {
	if e.moving == 0 && len(e.plane.mediums) == 1 {
		return
	}
	k := e.width(len(e.alive))
	for len(e.movers) < k {
		mr := &moverRand{}
		mr.rnd = func(n int) int { return mr.cur.Intn(n) }
		e.movers = append(e.movers, mr)
	}
	if len(e.plane.mediums) > 1 {
		e.plane.boxes(k)
		if e.mobFn == nil {
			e.mobFn = e.plane.mobility(e)
		}
	}
	if e.mobFn == nil {
		e.mobFn = func(w, lo, hi int) {
			mr := e.movers[w]
			for _, st := range e.alive[lo:hi] {
				if st.mover != nil {
					mr.cur = &st.rng
					at := &e.info[st.id].At
					*at = st.mover.Move(e.curRound, *at, mr.rnd)
				}
			}
		}
	}
	e.runChunks(len(e.alive), k, e.mobFn)
}

// collectTransmissions calls Transmit on every awake node and returns the
// non-nil results in NodeID order. Fanned out, chunks write per-position
// slots that are then merged over the awake list, so the transmission list
// is identical to the one-chunk collection, which appends as it goes and
// never touches the slots. The returned slice is engine-owned and valid
// until the next round.
func (e *Engine) collectTransmissions(r Round) []Transmission {
	e.txs = e.txs[:0]
	n := len(e.awake)
	k := e.width(n)
	if k == 1 {
		for _, st := range e.awake {
			if m := st.node.Transmit(r); m != nil {
				e.txs = append(e.txs, Transmission{Sender: st.id, From: e.info[st.id].At, Msg: m})
			}
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
			slots := e.txSlots[lo:hi]
			for i, st := range e.awake[lo:hi] {
				slots[i] = st.node.Transmit(e.curRound)
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

// deliver hands every awake node its reception: rxs[i] is awake[i]'s.
func (e *Engine) deliver(r Round, rxs []Reception) {
	e.curRxs = rxs
	if e.rxFn == nil {
		e.rxFn = func(_, lo, hi int) {
			rxs := e.curRxs[lo:hi]
			for i, st := range e.awake[lo:hi] {
				st.node.Receive(e.curRound, rxs[i])
			}
		}
	}
	e.runChunks(len(e.awake), e.width(len(e.awake)), e.rxFn)
	e.curRxs = nil
}

// fanout returns the most chunks a phase may run in: one without
// WithParallel, else the WithWorkers bound, or GOMAXPROCS.
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
