package vi

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"vinfra/internal/cha"
	"vinfra/internal/cm"
	"vinfra/internal/geo"
	"vinfra/internal/sim"
)

// Deployment describes a virtual infrastructure: the fixed virtual-node
// locations, the radio parameters, the broadcast schedule derived from
// them with the timetable of a virtual round, and the per-virtual-node
// programs and initial states. It is shared by every emulator and client.
// While rounds run, a virtual node's replicas publish what they share in
// it — the last step of its state, and its broadcast — in its memo, which
// the node's first publish allocates and later ones rewrite in place (see
// memo, step and outgoing); nothing else changes then. What changes
// otherwise is the storage nodes are carved from — the arrays Reserve lays
// out for the bootstrapped replicas (their emulators, agreement cores and
// contention managers) and the chunks NewClient carves clients from — and
// only where a node is built, inside the engine's Attach on the goroutine
// that builds the world.
type Deployment struct {
	locs     []geo.Point
	regionIx *geo.CellIndex // cell size R1/4: RegionOf is a 3x3-cell probe
	radii    geo.Radii
	schedule Schedule
	timing   Timing
	programs []Program // one per virtual node, shared by all its replicas
	inits    [][]byte  // programs[v].Init, worked out once and shared likewise
	vmax     float64
	leaders  []sim.NodeID // the fixed regime's leader table, or nil

	// duties is the timetable of a virtual round, one row of offsets per
	// kind of emulator (see buildTimetable); memos holds, per virtual node,
	// what its replicas share (see memo), nil until they first publish.
	duties []int32
	memos  []atomic.Pointer[vnodeMemo]

	// The unused tails of the arrays Reserve laid out; see NewEmulator.
	emulators slab[Emulator]
	cores     slab[cha.Core]
	fixed     slab[cm.Fixed]
	regional  slab[cm.Regional]

	// clients is the tail of the chunk NewClient carves the next Client
	// from, and carved the number of clients carved so far; see NewClient.
	clients []Client
	carved  int
}

// slab is the unused tail of an array a deployment reserved.
type slab[T any] []T

// reserve returns a slab of at least n entries: as many as the allocation's
// size class holds, which costs no more memory than n would.
func reserve[T any](n int) slab[T] {
	s := slices.Grow[slab[T]](nil, n)
	return s[:cap(s)]
}

// take returns the slab's next entry, zero, when carve is set and one is
// left, and a new T otherwise.
func (s *slab[T]) take(carve bool) *T {
	if !carve || len(*s) == 0 {
		return new(T)
	}
	p := &(*s)[0]
	*s = (*s)[1:]
	return p
}

// DeploymentConfig parameterizes NewDeployment.
type DeploymentConfig struct {
	// Locations are the virtual node positions. Required, non-empty.
	Locations []geo.Point
	// Radii are the quasi-unit-disk radio parameters. Required.
	Radii geo.Radii
	// Program supplies each virtual node's automaton. Required. It is
	// called once per virtual node, by NewDeployment, with the deployment's
	// broadcast schedule (a program that speaks only in its own slot reads
	// it): a program is a deterministic automaton every replica of the node
	// shares, its state the byte strings it is handed, never anything it
	// closes over.
	Program func(VNodeID, Schedule) Program
	// VMax bounds device speed; it shrinks the regional contention
	// manager's leader-eligibility margin (LeaderMargin). Optional.
	VMax float64
	// Leaders selects the fixed oracle regime: virtual node v's replicas
	// get cm.Fixed managers advising the node whose ID Leaders[v] holds. The
	// deployment keeps the caller's slice, one entry per location, and its
	// managers read their entry at every ballot, so writing an entry
	// re-elects. Optional; the default is a cm.Regional backoff manager per
	// replica.
	Leaders []sim.NodeID
}

// NewDeployment validates the configuration, colors the broadcast schedule
// — the one coloring a deployment pays for — lays out the timetable of a
// virtual round from it, and hands it to the Program factory for every
// virtual node, whose initial state it then works out, once, for every
// replica to share; then it returns the deployment.
func NewDeployment(cfg DeploymentConfig) (*Deployment, error) {
	if len(cfg.Locations) == 0 {
		return nil, fmt.Errorf("vi: deployment requires at least one virtual node location")
	}
	if err := cfg.Radii.Validate(); err != nil {
		return nil, fmt.Errorf("vi: %w", err)
	}
	if cfg.Program == nil {
		return nil, fmt.Errorf("vi: deployment requires a Program")
	}
	if cfg.Leaders != nil && len(cfg.Leaders) != len(cfg.Locations) {
		return nil, fmt.Errorf("vi: deployment Leaders needs one entry per location (%d for %d)", len(cfg.Leaders), len(cfg.Locations))
	}
	d := &Deployment{
		locs:     append([]geo.Point(nil), cfg.Locations...),
		radii:    cfg.Radii,
		programs: make([]Program, len(cfg.Locations)),
		inits:    make([][]byte, len(cfg.Locations)),
		vmax:     cfg.VMax,
		leaders:  cfg.Leaders,
		memos:    make([]atomic.Pointer[vnodeMemo], len(cfg.Locations)),
	}
	d.regionIx = geo.BuildCellIndex(d.locs, d.RegionRadius())
	d.schedule = BuildSchedule(d.locs, d.radii)
	d.timing = Timing{S: d.schedule.Len()}
	d.duties = buildTimetable(d.timing)
	for v := range d.programs {
		d.programs[v] = cfg.Program(VNodeID(v), d.schedule)
		d.inits[v] = d.programs[v].Init(VNodeID(v), d.locs[v])
	}
	return d, nil
}

// Reserve makes room for n bootstrapped replicas: NewEmulator carves the
// next n emulators, and the agreement cores and contention managers of
// those it bootstraps into a region, from arrays sized for n, so a
// bootstrapped replica costs no heap object of its own. An array holds no
// more than its allocation's size class does anyway (a few entries more,
// at no cost, which early mid-run replicas take); past that, each object is
// allocated, as without Reserve. A world built with and without it is the
// same world. Like NewEmulator, Reserve runs where nodes are built, never
// while rounds run.
func (d *Deployment) Reserve(n int) {
	if n <= 0 {
		return
	}
	d.emulators = reserve[Emulator](n)
	d.cores = reserve[cha.Core](n)
	if d.leaders != nil {
		d.fixed = reserve[cm.Fixed](n)
	} else {
		d.regional = reserve[cm.Regional](n)
	}
}

// newCM builds the contention manager of a replica of virtual node v run by
// env, the only place an emulator's manager is made: a cm.Fixed reading the
// leader table, or a cm.Regional. Only NewEmulator's bootstrap carves one
// and may compete in its first ballot; a region entered while rounds run
// (on the parallel engine's workers too) or on a restore, whose blob then
// overwrites it, allocates one that sits out its first ballot.
func (d *Deployment) newCM(v VNodeID, env sim.Env, bootstrap bool) cm.Manager {
	if d.leaders != nil {
		return d.fixed.take(bootstrap).Init(&d.leaders[v], env)
	}
	return d.regional.take(bootstrap).Init(d.locs[v], d.LeaderMargin(), env, !bootstrap)
}

// RegionRadius returns the replication region radius around each virtual
// node location: R1/4 (Section 4).
func (d *Deployment) RegionRadius() float64 { return d.radii.R1 / 4 }

// LeaderMargin returns the regional contention manager's eligibility
// radius around each virtual node location (Section 4.2): a temporary
// leader must stay within R1/4 of the location for LeaderHorizon = 2(s+10)
// rounds, so at speed up to vmax only a device within R1/4 - vmax*2(s+10)
// of it may compete. Floored at 0, where only a device exactly at the
// location is eligible.
func (d *Deployment) LeaderMargin() float64 {
	return max(d.RegionRadius()-d.vmax*float64(d.timing.LeaderHorizon()), 0)
}

// Timing returns the deployment's virtual round timing.
func (d *Deployment) Timing() Timing { return d.timing }

// Schedule returns the deployment's broadcast schedule.
func (d *Deployment) Schedule() Schedule { return d.schedule }

// NumVNodes returns the number of virtual nodes.
func (d *Deployment) NumVNodes() int { return len(d.locs) }

// RegionOf returns the virtual node whose replication region contains p
// (the nearest one within R1/4, exact ties toward the lower VNodeID), or
// None. The query probes the 3x3 block of R1/4-sized cells around p in the
// deployment's location index, so its cost is independent of the number of
// virtual nodes — every device re-evaluates its region at the start of
// every virtual round, which made the old linear scan the emulation's
// O(devices x vnodes) bottleneck.
func (d *Deployment) RegionOf(p geo.Point) VNodeID {
	if i, ok := d.regionIx.NearestWithin(p, d.RegionRadius()); ok {
		return VNodeID(i)
	}
	return None
}

// EmulatorHooks observe emulator lifecycle events for tests and metrics.
// All fields are optional. They fire inside the emulator's Receive, which
// the parallel engine runs on its workers: a hook shared by several
// replicas must be safe to call concurrently.
type EmulatorHooks struct {
	// OnBallot fires after each ballot the replica's contention manager is
	// fed, with the virtual node id and the feedback it was fed.
	OnBallot func(v VNodeID, fb cm.Feedback)
	// OnOutput fires after each completed agreement instance with the
	// virtual node id and the replica's output.
	OnOutput func(v VNodeID, out cha.Output)
	// OnJoin fires when the emulator completes a join (via ack).
	OnJoin func(v VNodeID, vround int)
	// OnReset fires when the emulator resets a dead virtual node.
	OnReset func(v VNodeID, vround int)
}

// Emulator is one mobile device participating in the virtual infrastructure
// emulation: whenever it resides within R1/4 of a virtual node location it
// (joins and) replicates that virtual node, running the eleven-phase
// protocol of Section 4.3. It implements sim.Node.
//
// Six of the phases are the two CHAP instances, scheduled and unscheduled,
// one case in Transmit and in Receive: a replica seated in the phase's
// instance hands the round to its cha.Seat, which has the replica encode
// its proposal (propose) only when the contention manager advises its
// ballot. What is a function of its virtual node's state alone — the
// state each history position steps to, and the vn phase's broadcast — a
// replica takes from a sibling that worked it out in the node's memo of the
// deployment (Deployment.step, Deployment.outgoing), so a virtual round
// allocates per virtual node, not per replica. A green close in the steady
// state — of the instance just above the replica's floor — steps that one
// position from the ballot its core adopted and builds no history at all;
// the output's history is built only for a close after ⊥ instances, or for
// a hook that asks (see closeInstance).
//
// A virtual node owns one slot of the schedule (Section 4.1) and uses one
// slot of the stretched ballot phase, so of the s+12 radio rounds of a
// virtual round an emulator has something to say, or something to hear that
// it keeps, in a handful. Every Receive ends by sleeping
// (sim.Env.SleepUntil) until the next of them, worked out from the emulator
// as that Receive left it — its region, whether it has joined, whether its
// virtual node is scheduled this virtual round — and by listening through
// those it only listens in (below). The rounds it is up for, and what puts
// each on the list:
//
//	client            everyone: Transmit re-evaluates the region and clears the
//	                  per-round scratch (startVRound); in a region, Receive
//	                  gathers the message sub-protocol's input
//	vn                a replica: broadcasts for the virtual node; gathers input
//	sched-ballot,     a replica of the scheduled virtual node: the scheduled
//	sched-veto-1/2    agreement instance — its seat's ballot, vetoes, core
//	unsched-ballot,   a replica of an unscheduled one: the other instance, in
//	unsched-veto-1/2  its virtual node's own slot of the s+2 ballot slots
//	join              a replica: notes join activity (sawJoinActivity); a joiner
//	                  in its virtual node's slot: sends its request
//	join-ack          a replica: notes a collision, and in its slot acks;
//	                  that joiner: adopts the ack
//	reset             a replica in its slot: the reset guard; that joiner, acked
//	                  or not: resets a virtual node nobody answered for
//
// That is 7 radio rounds a virtual round for a replica of an unscheduled
// virtual node, 8 of the scheduled one, 4 for a joiner in its virtual node's
// slot and 1 — the client phase — for a joiner out of it or a device outside
// every region. A round is on the list because the emulator transmits in it
// or changes state a snapshot records, whether or not that state is consumed
// later: a replica of an unscheduled virtual node never acts on
// sawJoinActivity, yet stays up for join and join-ack, because a checkpoint
// taken after any radio round must not tell a run that sleeps from one that
// does not. Every phase check in Transmit and Receive stays, so a round slept
// through is a no-op when the emulator is awake for it after all, as it is
// right after a restore.
//
// In some of those rounds a replica has nothing to send, and an empty
// reception changes nothing it keeps, but what it hears would: there it only
// listens (sim.Env.ListenUntil), and the engine computes its reception but
// calls it only for a message or a collision indication — and in a quiet
// round, one nobody transmits in, it computes none either (sim.Quiet), as
// in most vetoes, joins, join-acks and resets of a steady run, and calls
// only the replicas awake for the round with the empty reception. Those
// duties are
//
//	veto-1            while its core is not red: only a red core vetoes (Figure
//	                  1, line 21), and only a veto or a collision heard
//	                  downgrades it (lines 33-35)
//	join              always: a replica sends nothing there, and notes join
//	                  activity only on a request or a collision
//	join-ack          always for a replica of an unscheduled virtual node: only
//	                  the scheduled node's replicas ack, and a collision only
//	                  notes join activity
//	join-ack, reset   for a replica of the scheduled virtual node, while it
//	                  has seen no join activity: it acks and guards only after
//	                  seeing some, and notes it only on a collision
//
// So a replica that hears nothing there is called in 4 radio rounds a
// virtual round — client, vn, its ballot slot and veto-2. Since the engine
// calls no Transmit in a round it listens in, a round is listen-only only
// when its Transmit would send nothing and draw nothing; the kind of each
// duty, and the condition it is listen-only under, are read once, when a
// Receive plans its next duties, not in every Receive's phase switch.
//
// A wake pays little bookkeeping before the protocol does anything. The
// table above is laid out once per deployment as a timetable (Deployment's
// duties): one row per kind of emulator — outside every region or a joiner
// out of its slot, a joiner in its slot, a replica of the scheduled virtual
// node, a replica of an unscheduled one in slot k — listing the offsets it is
// up for, each with its kind: a duty it must be awake for, or one of the
// three it may only listen in. A Receive sleeps until the next duty and,
// when that one and those after it are listen-only as the emulator now
// stands, listens until the first it must be awake for. The emulator keeps
// its place in the timetable, one index: the row, worked out once per
// virtual round and whenever it joins, resets or changes region, gives
// whether its virtual node is scheduled and whether it is seated in an
// instance, and the next duty is the row's next entry. While it listens,
// its place is the first duty it listens in, so a reception that wakes it
// resumes the row there. The
// emulator remembers which virtual round it last read the clock in, so a
// round's offset into it is found without dividing (a division only when a
// new virtual round begins, which also forgets the place); and the region
// lookup at the start of a virtual round is skipped when the device stands,
// bit for bit, where it stood at the last lookup. These caches are derived
// from the round, the deployment and the location, never state a snapshot
// records.
type Emulator struct {
	env   sim.Env
	d     *Deployment
	hooks *EmulatorHooks // nil: none; a world's replicas share one

	vn VNodeID // current region's virtual node (None when outside)

	// The emulator's seven one-byte fields share one word.
	joined          bool
	atOK            bool // at is the location checkRegion last evaluated
	began           bool // whether the seat balloted this vround
	broadcast       bool // whether the seat broadcast its ballot this vround
	sawJoinActivity bool // join request or collision in join/join-ack phases
	requested       bool // joiner: sent a join request this vround
	gotAck          bool // joiner: adopted an ack this vround

	// The clock, timetable and region caches, with atOK above. vr is the
	// virtual round the clock last read (from 1; 0 none) and wake the
	// emulator's place in the timetable in it: an index into the
	// deployment's duties, in the row of the emulator's kind — the entry it
	// sleeps until, once a Receive has worked that out — or -1 when not
	// worked out. A run past 2^31 virtual rounds wraps vr, which then never
	// matches: the clock divides and the place is worked out on every call.
	vr   int32
	wake int32
	at   geo.Point // see atOK

	// cache is the replica's state cache, zero unless joined. It lives in
	// the emulator, so a replica is one heap object, not two.
	cache stateCache

	// Per-virtual-round scratch state. input.Msgs reuses its backing array
	// across virtual rounds (the encoded proposal copies the bytes out), so
	// the steady-state message sub-protocol allocates nothing here.
	input           RoundInput // accumulating message sub-protocol input
	expectedPayload []byte     // own VN's expected broadcast payload this vround

	// seat runs both agreement instances: its core is nil unless joined,
	// its manager nil outside every region. It comes last, so that its
	// ballot, read only when one is broadcast, ends the struct.
	seat cha.Seat
}

var _ sim.Node = (*Emulator)(nil)

// NewEmulator builds an emulator for the deployment. If bootstrap is true
// and the device starts inside a region, it begins as a full replica of
// that virtual node in its initial state (the deployment's round-0
// bootstrap); otherwise it acquires state through the join protocol.
//
// The emulator, and a bootstrapped replica's agreement core and contention
// manager, are carved from the arrays Reserve laid out while they last and
// allocated after; the initial state is the one the virtual node's
// replicas share. The fields are set one by one, as NewClient's are.
// NewEmulator is called where the engine's Attach builds a node, never
// concurrently with itself or while rounds run: the parallel engine's
// workers enter regions (checkRegion) with managers of their own.
func (d *Deployment) NewEmulator(env sim.Env, bootstrap bool) *Emulator {
	e := d.emulators.take(true)
	e.env = env
	e.d = d
	e.vn = None
	e.wake = -1
	if bootstrap {
		if v := d.RegionOf(env.Location()); v != None {
			e.enterRegion(v, d.newCM(v, env, true))
			e.becomeReplica(0, d.inits[v], d.cores.take(true))
		}
	}
	return e
}

// SetHooks installs lifecycle hooks (call before running). The emulator
// keeps the pointer, so replicas that report to the same place share one
// EmulatorHooks.
func (e *Emulator) SetHooks(h *EmulatorHooks) { e.hooks = h }

// Joined reports whether the emulator is a full replica of its region's
// virtual node.
func (e *Emulator) Joined() bool { return e.joined }

// enterRegion makes the emulator a joiner of virtual node v, with mgr as
// its contention manager.
func (e *Emulator) enterRegion(v VNodeID, mgr cm.Manager) {
	e.vn = v
	e.wake = -1
	e.joined = false
	e.seat.CM = mgr
	e.seat.Core = nil
	e.cache = stateCache{}
	e.requested = false
	e.gotAck = false
}

func (e *Emulator) leaveRegion() {
	e.vn = None
	e.wake = -1
	e.joined = false
	e.seat.CM = nil
	e.seat.Core = nil
	e.cache = stateCache{}
}

// becomeReplica installs agreement and application state as of instance
// floor, making the emulator a full replica.
func (e *Emulator) becomeReplica(floor cha.Instance, state []byte, core *cha.Core) {
	e.seat.Core = core
	e.cache.resetAt(floor, state)
	e.joined = true
	e.wake = -1
}

// checkRegion re-evaluates region membership at the start of each virtual
// round. A device standing, bit for bit, where the last evaluation found it
// is still in the region that evaluation chose — e.vn has changed since only
// if RestoreState replaced it, and RestoreState forgets the location — so
// the lookup is skipped.
func (e *Emulator) checkRegion() {
	at := e.env.Location()
	if e.atOK && samePoint(at, e.at) && !noCache {
		return
	}
	e.at, e.atOK = at, true
	v := e.d.RegionOf(at)
	if v == e.vn {
		return
	}
	if e.vn != None {
		e.leaveRegion()
	}
	if v != None {
		e.enterRegion(v, e.d.newCM(v, e.env, false))
	}
}

func samePoint(a, b geo.Point) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y)
}

// noCache turns every emulator cache off: the deployment's step works each
// position out afresh, never taking a sibling's published step, and every
// replica asks its program for the broadcast itself; the state cache
// refolds from the floor on every call; and clock, the emulator's
// place in the timetable and checkRegion work their answers out afresh on
// every call, which is how the emulator behaved before it cached them. Only
// tests set it (export_test.go): it is the oracle the caches are held to,
// not a mode anyone can select.
var noCache bool

// clock returns radio round r's offset into its virtual round and that
// virtual round's number — from 1, so that virtual round vr corresponds to
// agreement instance vr. It divides only when r lies outside the virtual
// round it last answered for, and then forgets the emulator's place in the
// timetable, which is the old virtual round's.
func (e *Emulator) clock(r sim.Round) (off, vr int) {
	per := e.d.timing.RoundsPerVRound()
	if off := int(r) - (int(e.vr)-1)*per; off >= 0 && off < per && !noCache {
		return off, int(e.vr)
	}
	vr = int(r)/per + 1
	e.vr, e.wake = int32(vr), -1
	return int(r) % per, vr
}

// row returns the timetable row the emulator is in during virtual round vr,
// the clock's. When its place is not known, it works it out: the first
// entry of the row.
func (e *Emulator) row(vr int) int {
	if e.wake < 0 {
		e.wake = int32(e.d.rowOf(e.vn, e.joined, vr) << dutyShift)
	}
	return int(e.wake) >> dutyShift
}

// Transmit implements sim.Node.
func (e *Emulator) Transmit(r sim.Round) sim.Message {
	off, vr := e.clock(r)
	phase, subslot := e.d.timing.PhaseAt(off)
	switch phase {
	case PhaseClient:
		e.startVRound()
		return nil
	case PhaseVN:
		return e.transmitVN(r, vr)
	case PhaseSchedBallot, PhaseSchedVeto1, PhaseSchedVeto2,
		PhaseUnschedBallot, PhaseUnschedVeto1, PhaseUnschedVeto2:
		p, sched := phase.instance()
		switch {
		case !e.seated(vr, sched, subslot):
			return nil
		case p == cha.PhaseBallot:
			e.began = true
			m := e.seat.Ballot(cha.Instance(vr), e.propose)
			e.broadcast = m != nil
			return m
		default:
			return e.seat.Veto(p)
		}
	case PhaseJoin:
		if e.row(vr) == rowJoiner {
			e.requested = true
			e.gotAck = false
			return JoinReqMsg{}
		}
		return nil
	case PhaseJoinAck:
		if e.sawJoinActivity && e.row(vr) == rowSched && e.seat.CM.Advice() {
			return e.joinAck()
		}
		return nil
	default: // PhaseReset
		// The guard is schedule-gated like the join sub-protocol it
		// protects: joiners of virtual node v request (and reset) only in
		// v's slot, and only v's own replicas must veto the reset. An
		// unscheduled replica that heard a neighboring region's join
		// collision must stay silent — guarding here would block the
		// legitimate reset of a fully-wiped neighbor forever (every region
		// of a dense deployment sits within the others' interference
		// radius, so the stray ± reaches everyone).
		if e.sawJoinActivity && e.row(vr) == rowSched {
			return ResetGuardMsg{}
		}
		return nil
	}
}

// seated reports whether this emulator is a replica that runs the scheduled
// (sched = true) or unscheduled instance of virtual round vr at ballot
// sub-slot subslot, -1 outside the unscheduled ballot phase: its row is the
// scheduled replica's, or an unscheduled replica's — the one of slot
// subslot, when there is one.
func (e *Emulator) seated(vr int, sched bool, subslot int) bool {
	switch row := e.row(vr); {
	case sched:
		return row == rowSched
	case subslot < 0:
		return row >= rowUnsched
	default:
		return row == rowUnsched+subslot
	}
}

// startVRound resets per-round scratch state and re-evaluates the region.
// input.Msgs keeps its backing array: Encode copies payload bytes into the
// proposal value, so nothing alive refers to the old entries.
func (e *Emulator) startVRound() {
	e.checkRegion()
	e.input.Msgs = e.input.Msgs[:0]
	e.input.Collision = false
	e.input.VNBroadcast = false
	e.began = false
	e.expectedPayload = nil
	e.sawJoinActivity = false
	e.requested = false
	e.gotAck = false
}

// propose is the replica's proposal for the virtual round's instance: what it
// gathered in the message sub-protocol. The seat asks for it only when the
// contention manager advises a ballot, so only a broadcast proposal is
// encoded.
func (e *Emulator) propose(cha.Instance) cha.Value { return e.input.Encode() }

// transmitVN implements the vn phase broadcast rule of Section 4.3, in radio
// round r: if the virtual node is unscheduled but chooses to broadcast,
// every replica broadcasts; if it is scheduled, only contention-manager-
// advised replicas do. What the node broadcasts is asked of its program
// once between its replicas (Deployment.outgoing).
func (e *Emulator) transmitVN(r sim.Round, vr int) sim.Message {
	if e.vn == None || !e.joined {
		return nil
	}
	out := e.d.outgoing(e.vn, e.estimate(r, vr), vr, r)
	if out == nil {
		return nil
	}
	e.expectedPayload = out.Payload
	if e.expectedPayload == nil {
		e.expectedPayload = []byte{}
	}
	// An unscheduled virtual node ignores its schedule; so do its replicas.
	if e.row(vr) != rowSched || e.seat.CM.Advice() {
		e.input.VNBroadcast = true
		return out
	}
	return nil
}

// estimate returns the virtual node's state entering virtual round vr, asked
// in radio round r (see stateAt): the state after the core's history
// estimate through instance vr-1. In the steady state the last instance went
// green and was folded, and the answer is the floor's state, read without
// calculating a history.
func (e *Emulator) estimate(r sim.Round, vr int) []byte {
	if upTo := cha.Instance(vr) - 1; upTo > e.cache.floor {
		return e.d.stateAt(e.vn, &e.cache, e.seat.Core.HistoryView(), upTo, r)
	}
	return e.cache.floorState
}

func (e *Emulator) joinAck() sim.Message {
	return JoinAckMsg{
		StateFloor: e.cache.floor,
		State:      e.cache.floorState,
		Snap:       e.seat.Core.Snapshot(),
	}
}

// Receive implements sim.Node.
func (e *Emulator) Receive(r sim.Round, rx sim.Reception) {
	off, vr := e.clock(r)
	phase, subslot := e.d.timing.PhaseAt(off)
	switch phase {
	case PhaseClient:
		if e.vn != None {
			for _, m := range rx.Msgs {
				if msg, ok := m.(*ClientMsg); ok {
					e.input.Msgs = append(e.input.Msgs, msg.Payload)
				}
			}
			if rx.Collision {
				e.input.Collision = true
			}
		}
	case PhaseVN:
		if e.vn != None && e.joined {
			for _, m := range rx.Msgs {
				vm, ok := m.(*VNMsg)
				if !ok {
					continue
				}
				if e.expectedPayload != nil && bytes.Equal(vm.Payload, e.expectedPayload) {
					e.input.VNBroadcast = true
					continue
				}
				e.input.Msgs = append(e.input.Msgs, vm.Payload)
			}
			if rx.Collision {
				e.input.Collision = true
			}
		}
	case PhaseSchedBallot, PhaseSchedVeto1, PhaseSchedVeto2,
		PhaseUnschedBallot, PhaseUnschedVeto1, PhaseUnschedVeto2:
		p, sched := phase.instance()
		// Defensive: a replica that joined mid-round closes neither the
		// ballot nor the instance.
		if !e.seated(vr, sched, subslot) || !e.began && p != cha.PhaseVeto1 {
			break
		}
		fb, out := e.seat.Receive(p, rx, e.broadcast)
		switch {
		case p == cha.PhaseVeto2:
			e.closeInstance(r, out)
		case p == cha.PhaseBallot && e.hooks != nil && e.hooks.OnBallot != nil:
			e.hooks.OnBallot(e.vn, fb)
		}
	case PhaseJoin:
		if e.joined {
			if hasJoinReq(rx.Msgs) || rx.Collision {
				e.sawJoinActivity = true
			}
		}
	case PhaseJoinAck:
		switch {
		case e.joined:
			if rx.Collision {
				e.sawJoinActivity = true
			}
		case e.requested:
			for _, m := range rx.Msgs {
				if ack, ok := m.(JoinAckMsg); ok {
					e.adoptAck(vr, ack)
					break
				}
			}
		}
	default: // PhaseReset
		if e.requested && !e.gotAck && !e.joined {
			if len(rx.Msgs) == 0 && !rx.Collision {
				e.resetVNode(vr)
			}
		}
	}
	// Last, so that it sees the region startVRound chose and the replica
	// adoptAck or resetVNode made.
	next, awake := e.nextDuty(off, vr)
	e.env.SleepUntil(r + sim.Round(next-off))
	if awake > next {
		e.env.ListenUntil(r + sim.Round(awake-off))
	}
}

// nextDuty returns the offset into virtual round vr of the first round
// after offset off in which the emulator as it now stands transmits or
// changes snapshotted state — the next entry of its row of the timetable
// (the rows end in RoundsPerVRound, the next client phase), which becomes
// its place — and the offset of the first of those it must be awake for:
// the same, or the first after a run of duties it only listens in.
func (e *Emulator) nextDuty(off, vr int) (next, awake int) {
	e.row(vr) // works the place out if need be
	w := int(e.wake)
	for int(e.d.duties[w]>>listenBits) <= off {
		w++
	}
	e.wake = int32(w)
	next = int(e.d.duties[w] >> listenBits)
	for e.d.duties[w]&listenMask != dutyAwake && e.listens(e.d.duties[w]) {
		w++
	}
	return next, int(e.d.duties[w] >> listenBits)
}

// listens reports whether the emulator as it now stands only listens in
// duty, one of the kinds a replica may only listen in: it sends nothing
// there, and an empty reception changes nothing. nextDuty asks only of
// those kinds, so that a duty it must be awake for costs no call.
func (e *Emulator) listens(duty int32) bool {
	switch duty & listenMask {
	case dutyVeto1:
		return !e.seat.Core.NeedVeto(cha.PhaseVeto1)
	case dutyQuiet:
		return !e.sawJoinActivity
	}
	return true // dutyListen
}

// The timetable's rows: an emulator outside every region or a joiner out of
// its virtual node's slot; a joiner in it; a replica of the scheduled
// virtual node; and a replica of an unscheduled one, in slot k the row
// rowUnsched+k. A row is 1<<dutyShift entries long, room for the most
// duties a row has (a scheduled replica's eight) and the end.
const (
	rowIdle = iota
	rowJoiner
	rowSched
	rowUnsched

	dutyShift = 4
)

// An entry of the timetable is an offset shifted left by listenBits, over
// the kind of duty it is: one the emulator must be awake for, or one a
// replica may only listen in (see the Emulator comment) — veto-1 while its
// core needs no veto; join, and an unscheduled replica's join-ack, always;
// the scheduled replica's join-ack and reset while it has seen no join
// activity.
const (
	dutyAwake = iota
	dutyVeto1
	dutyListen
	dutyQuiet

	listenBits = 2
	listenMask = 1<<listenBits - 1
)

// rowOf returns the timetable row of an emulator in virtual node v's region
// (None: in none) that is a replica of it or not (joined), in virtual round
// vr (from 1).
func (d *Deployment) rowOf(v VNodeID, joined bool, vr int) int {
	if v == None {
		return rowIdle
	}
	switch sched := d.schedule.ScheduledIn(v, vr-1); {
	case joined && sched:
		return rowSched
	case joined:
		return rowUnsched + d.schedule.slotOf[v]
	case sched:
		return rowJoiner
	}
	return rowIdle
}

// buildTimetable lays out the duty table of the Emulator comment for
// schedule length t.S: each row lists the offsets into a virtual round its
// kind of emulator is up for, ascending from the client phase at 0, and is
// filled out with RoundsPerVRound, the next virtual round's client phase.
// Offsets: client 0, vn 1, sched ballot and vetoes 2-4, unsched ballot slot
// k at 5+k, unsched vetoes s+7 and s+8, join s+9, join-ack s+10, reset s+11.
// A replica's duties carry the kind their phase and row give them
// (listenKind).
func buildTimetable(t Timing) []int32 {
	s, per := t.S, t.RoundsPerVRound()
	duties := make([]int32, (rowUnsched+s)<<dutyShift)
	for i := range duties {
		duties[i] = int32(per) << listenBits
	}
	fill := func(row int, offs ...int) {
		for i, off := range offs {
			d := int32(off) << listenBits
			if row >= rowSched {
				d |= listenKind(t, row, off)
			}
			duties[row<<dutyShift+i] = d
		}
	}
	fill(rowIdle, 0)
	fill(rowJoiner, 0, s+9, s+10, s+11)
	fill(rowSched, 0, 1, 2, 3, 4, s+9, s+10, s+11)
	for k := 0; k < s; k++ {
		fill(rowUnsched+k, 0, 1, 5+k, s+7, s+8, s+9, s+10)
	}
	return duties
}

// listenKind returns the kind of the duty at offset off of a replica in
// timetable row row: veto-1, join, join-ack and reset are the duties it may
// only listen in, and an unscheduled replica always listens in join-ack.
func listenKind(t Timing, row, off int) int32 {
	switch p, _ := t.PhaseAt(off); {
	case p == PhaseSchedVeto1, p == PhaseUnschedVeto1:
		return dutyVeto1
	case p == PhaseJoin, p == PhaseJoinAck && row >= rowUnsched:
		return dutyListen
	case p == PhaseJoinAck, p == PhaseReset:
		return dutyQuiet
	}
	return dutyAwake
}

// closeInstance takes the seat's output at the final veto phase of radio
// round r: a green one's state becomes the floor's (the checkpoint that
// bounds local state and join-ack size, Section 3.5), the hook fires, and
// then the agreement layer is garbage-collected below a green instance —
// last, so that a hook that asks for the output's history is handed the one
// the close published, which the core builds from what GC drops.
func (e *Emulator) closeInstance(r sim.Round, out cha.Output) {
	green := out.Color == cha.Green
	if green {
		e.cache.resetAt(out.Instance, e.folded(r, out))
	}
	if e.hooks != nil && e.hooks.OnOutput != nil {
		e.hooks.OnOutput(e.vn, out)
	}
	if green {
		e.seat.Core.GC(out.Instance)
	}
}

// folded returns the virtual node's state through green output out, closed
// in radio round r. In the steady state the instance is the one just above
// the floor, and the history has one position above it, the ballot the core
// adopted: that one position is stepped from the floor's state, through the
// deployment's step, and no history is built. Any other close — after ⊥
// instances, or with the caches off — works the state out like the
// estimate, from where this virtual round's estimate left off when the
// green history agrees with it that far.
func (e *Emulator) folded(r sim.Round, out cha.Output) []byte {
	if k := out.Instance; k == e.cache.floor+1 && !noCache {
		val, ok := e.seat.Core.Adopted(k)
		return e.d.step(e.vn, &e.cache, e.cache.floorState, val, ok, k, r, true)
	}
	return e.d.stateAt(e.vn, &e.cache, out.History(), out.Instance, r)
}

// adoptAck installs the transferred state and makes this emulator a full
// replica from the next virtual round.
func (e *Emulator) adoptAck(vr int, ack JoinAckMsg) {
	e.gotAck = true
	core, err := cha.RestoreCore(ack.Snap)
	if err != nil {
		// The ack is a live replica's own Snapshot, handed over in process.
		panic(fmt.Sprintf("vi: join-ack does not restore: %v", err))
	}
	e.becomeReplica(ack.StateFloor, ack.State, core)
	if e.hooks != nil && e.hooks.OnJoin != nil {
		e.hooks.OnJoin(e.vn, vr)
	}
}

// resetVNode revives a dead virtual node in its initial state, the one its
// replicas share (Section 4.3: safe only after the reset phase stayed
// silent).
func (e *Emulator) resetVNode(vr int) {
	core := cha.NewCore()
	core.ResetAt(cha.Instance(vr))
	e.becomeReplica(cha.Instance(vr), e.d.inits[e.vn], core)
	if e.hooks != nil && e.hooks.OnReset != nil {
		e.hooks.OnReset(e.vn, vr)
	}
}

func hasJoinReq(msgs []sim.Message) bool {
	for _, m := range msgs {
		if _, ok := m.(JoinReqMsg); ok {
			return true
		}
	}
	return false
}
