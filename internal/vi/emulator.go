package vi

import (
	"bytes"
	"fmt"
	"math"
	"slices"

	"vinfra/internal/cha"
	"vinfra/internal/cm"
	"vinfra/internal/geo"
	"vinfra/internal/sim"
)

// Deployment describes a virtual infrastructure: the fixed virtual-node
// locations, the radio parameters, the broadcast schedule derived from
// them, and the per-virtual-node programs and initial states. It is shared
// by every emulator and client, and read-only while rounds run: what
// changes is the storage nodes are carved from — the arrays Reserve lays
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
	customCM func(v VNodeID, env sim.Env) cm.Manager

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
	// NewCM overrides the contention manager factory. Optional, and not
	// with Leaders; the managers it builds are never carved.
	NewCM func(v VNodeID, env sim.Env) cm.Manager
}

// NewDeployment validates the configuration, colors the broadcast schedule
// — the one coloring a deployment pays for — and hands it to the Program
// factory for every virtual node, whose initial state it then works out,
// once, for every replica to share; then it returns the deployment.
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
	if cfg.Leaders != nil && (cfg.NewCM != nil || len(cfg.Leaders) != len(cfg.Locations)) {
		return nil, fmt.Errorf("vi: deployment Leaders needs one entry per location (%d for %d) and no NewCM", len(cfg.Leaders), len(cfg.Locations))
	}
	d := &Deployment{
		locs:     append([]geo.Point(nil), cfg.Locations...),
		radii:    cfg.Radii,
		programs: make([]Program, len(cfg.Locations)),
		inits:    make([][]byte, len(cfg.Locations)),
		vmax:     cfg.VMax,
		leaders:  cfg.Leaders,
		customCM: cfg.NewCM,
	}
	d.regionIx = geo.BuildCellIndex(d.locs, d.RegionRadius())
	d.schedule = BuildSchedule(d.locs, d.radii)
	d.timing = Timing{S: d.schedule.Len()}
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
	switch {
	case d.customCM != nil:
	case d.leaders != nil:
		d.fixed = reserve[cm.Fixed](n)
	default:
		d.regional = reserve[cm.Regional](n)
	}
}

// newCM builds the contention manager of a replica of virtual node v run by
// env: NewCM's, a cm.Fixed reading the leader table, or a cm.Regional.
// carve takes it from the reservation, which only NewEmulator does: a
// region entered while rounds run — on the parallel engine's workers — or
// on a restore allocates its manager.
func (d *Deployment) newCM(v VNodeID, env sim.Env, carve bool) cm.Manager {
	switch {
	case d.customCM != nil:
		return d.customCM(v, env)
	case d.leaders != nil:
		return d.fixed.take(carve).Init(&d.leaders[v], env)
	default:
		return d.regional.take(carve).Init(d.locs[v], d.LeaderMargin(), env)
	}
}

// program returns virtual node v's automaton.
func (d *Deployment) program(v VNodeID) Program { return d.programs[v] }

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
// All fields are optional.
type EmulatorHooks struct {
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
// A virtual node owns one slot of the schedule (Section 4.1) and uses one
// slot of the stretched ballot phase, so of the s+12 radio rounds of a
// virtual round an emulator has something to say, or something to hear that
// it keeps, in a handful. Every Receive ends by sleeping
// (sim.Env.SleepUntil) until the next of them, worked out from the emulator
// as that Receive left it — its region, whether it has joined, whether its
// virtual node is scheduled this virtual round. The rounds it is up for, and
// what puts each on the list:
//
//	client            everyone: Transmit re-evaluates the region and clears the
//	                  per-round scratch (startVRound); in a region, Receive
//	                  gathers the message sub-protocol's input
//	vn                a replica: broadcasts for the virtual node; gathers input
//	sched-ballot,     a replica of the scheduled virtual node: the scheduled
//	sched-veto-1/2    agreement instance — ballot, vetoes, the core's state
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
// A wake pays little bookkeeping before the protocol does anything. The
// emulator remembers which virtual round it last read the clock in, so a
// round's offset into it is found without dividing (a division only when a
// new virtual round begins); whether its virtual node is scheduled is worked
// out once per virtual round and region; and the region lookup at the start
// of a virtual round is skipped when the device stands, bit for bit, where it
// stood at the last lookup. These caches are derived from the round, the
// deployment and the location, never state a snapshot records.
type Emulator struct {
	env   sim.Env
	d     *Deployment
	hooks *EmulatorHooks // nil: none; a world's replicas share one

	vn VNodeID // current region's virtual node (None when outside)

	// The emulator's eight one-byte fields share one word.
	joined          bool
	atOK            bool // at is the location checkRegion last evaluated
	sched           int8 // scheduled(vr) for vn: 0 not yet worked out, 1 no, 2 yes
	began           bool // whether Begin was called this vround
	broadcastBallot bool
	sawJoinActivity bool // join request or collision in join/join-ack phases
	requested       bool // joiner: sent a join request this vround
	gotAck          bool // joiner: adopted an ack this vround

	// The clock and region caches, with atOK and sched above.
	vr int       // the virtual round the clock last read (from 1); 0 none
	at geo.Point // see atOK

	mgr  cm.Manager
	core *cha.Core
	// cache is the replica's state cache, zero unless joined. It lives in
	// the emulator, so a replica is one heap object, not two.
	cache stateCache

	// Per-virtual-round scratch state. input.Msgs reuses its backing array
	// across virtual rounds (the encoded proposal copies the bytes out), so
	// the steady-state message sub-protocol allocates nothing here.
	input           RoundInput // accumulating message sub-protocol input
	expectedPayload []byte     // own VN's expected broadcast payload this vround
	// ballot is the last ballot this replica broadcast: transmitBallot hands
	// out a pointer to it, valid for its round (see cha.BallotMsg).
	ballot cha.BallotMsg
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
	e.sched = 0
	e.joined = false
	e.mgr = mgr
	e.core = nil
	e.cache = stateCache{}
	e.requested = false
	e.gotAck = false
}

func (e *Emulator) leaveRegion() {
	e.vn = None
	e.joined = false
	e.mgr = nil
	e.core = nil
	e.cache = stateCache{}
}

// becomeReplica installs agreement and application state as of instance
// floor, making the emulator a full replica.
func (e *Emulator) becomeReplica(floor cha.Instance, state []byte, core *cha.Core) {
	e.core = core
	e.cache.resetAt(floor, state)
	e.joined = true
}

// checkRegion re-evaluates region membership at the start of each virtual
// round. A device standing, bit for bit, where the last evaluation found it
// is still in the region that evaluation chose — e.vn has changed since only
// if RestoreState replaced it, and RestoreState forgets the location — so
// the lookup is skipped.
func (e *Emulator) checkRegion() {
	at := e.env.Location()
	if e.atOK && samePoint(at, e.at) && !noClockCache {
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

// noClockCache makes clock, scheduled and checkRegion work their answers out
// afresh on every call, which is how the emulator behaved before it cached
// them. Only tests set it (export_test.go): it is the oracle the caches are
// held to, not a mode anyone can select.
var noClockCache bool

// clock returns radio round r's offset into its virtual round and that
// virtual round's number — from 1, so that virtual round vr corresponds to
// agreement instance vr. It divides only when r lies outside the virtual
// round it last answered for.
func (e *Emulator) clock(r sim.Round) (off, vr int) {
	per := e.d.timing.RoundsPerVRound()
	if off := int(r) - (e.vr-1)*per; off >= 0 && off < per && !noClockCache {
		return off, e.vr
	}
	e.vr, e.sched = int(r)/per+1, 0
	return int(r) % per, e.vr
}

// position is Timing.Decompose off the clock, with virtual rounds from 1.
func (e *Emulator) position(r sim.Round) (vr int, phase Phase, subslot int) {
	off, vr := e.clock(r)
	phase, subslot = e.d.timing.PhaseAt(off)
	return vr, phase, subslot
}

// scheduled reports whether this emulator's virtual node is scheduled in
// virtual round vr, looking it up once per virtual round and region.
func (e *Emulator) scheduled(vr int) bool {
	if vr != e.vr || noClockCache {
		return e.d.schedule.ScheduledIn(e.vn, vr-1)
	}
	if e.sched == 0 {
		e.sched = 1
		if e.d.schedule.ScheduledIn(e.vn, vr-1) {
			e.sched = 2
		}
	}
	return e.sched == 2
}

// Transmit implements sim.Node.
func (e *Emulator) Transmit(r sim.Round) sim.Message {
	vr, phase, subslot := e.position(r)
	switch phase {
	case PhaseClient:
		e.startVRound()
		return nil
	case PhaseVN:
		return e.transmitVN(vr)
	case PhaseSchedBallot:
		if e.participating(vr, true) {
			return e.transmitBallot(vr)
		}
		return nil
	case PhaseSchedVeto1:
		if e.participating(vr, true) && e.core.NeedVeto1() {
			return cha.VetoMsg{}
		}
		return nil
	case PhaseSchedVeto2:
		if e.participating(vr, true) && e.core.NeedVeto2() {
			return cha.VetoMsg{}
		}
		return nil
	case PhaseUnschedBallot:
		if e.participating(vr, false) && subslot == e.d.schedule.SlotOf(e.vn) {
			return e.transmitBallot(vr)
		}
		return nil
	case PhaseUnschedVeto1:
		if e.participating(vr, false) && e.core.NeedVeto1() {
			return cha.VetoMsg{}
		}
		return nil
	case PhaseUnschedVeto2:
		if e.participating(vr, false) && e.core.NeedVeto2() {
			return cha.VetoMsg{}
		}
		return nil
	case PhaseJoin:
		if e.vn != None && !e.joined && e.scheduled(vr) {
			e.requested = true
			e.gotAck = false
			return JoinReqMsg{}
		}
		return nil
	case PhaseJoinAck:
		if e.joined && e.sawJoinActivity && e.scheduled(vr) && e.mgr.Advice() {
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
		if e.joined && e.sawJoinActivity && e.scheduled(vr) {
			return ResetGuardMsg{}
		}
		return nil
	}
}

// participating reports whether this emulator runs the scheduled (sched =
// true) or unscheduled agreement instance in virtual round vr.
func (e *Emulator) participating(vr int, sched bool) bool {
	return e.vn != None && e.joined && e.scheduled(vr) == sched
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

// transmitVN implements the vn phase broadcast rule of Section 4.3: if the
// virtual node is unscheduled but chooses to broadcast, every replica
// broadcasts; if it is scheduled, only contention-manager-advised replicas
// do.
func (e *Emulator) transmitVN(vr int) sim.Message {
	if e.vn == None || !e.joined {
		return nil
	}
	prog := e.d.program(e.vn)
	out := prog.Outgoing(e.cache.stateBefore(prog, e.core.HistoryView, vr), vr)
	if out == nil {
		return nil
	}
	e.expectedPayload = out.Payload
	if e.expectedPayload == nil {
		e.expectedPayload = []byte{}
	}
	if !e.scheduled(vr) {
		// The virtual node ignores its schedule; so do its replicas.
		e.input.VNBroadcast = true
		return VNMsg{Payload: out.Payload}
	}
	if e.mgr.Advice() {
		e.input.VNBroadcast = true
		return VNMsg{Payload: out.Payload}
	}
	return nil
}

func (e *Emulator) transmitBallot(vr int) sim.Message {
	b := e.core.Begin(cha.Instance(vr), e.input.Encode())
	e.began = true
	e.broadcastBallot = e.mgr.Advice()
	if e.broadcastBallot {
		e.ballot.B = b
		return &e.ballot
	}
	return nil
}

func (e *Emulator) joinAck() sim.Message {
	return JoinAckMsg{
		StateFloor: e.cache.floor,
		State:      e.cache.floorState,
		Snap:       e.core.Snapshot(),
	}
}

// Receive implements sim.Node.
func (e *Emulator) Receive(r sim.Round, rx sim.Reception) {
	vr, phase, subslot := e.position(r)
	switch phase {
	case PhaseClient:
		if e.vn != None {
			for _, m := range rx.Msgs {
				if msg, ok := m.(ClientMsg); ok {
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
				vm, ok := m.(VNMsg)
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
	case PhaseSchedBallot:
		if e.participating(vr, true) {
			e.observeBallots(rx)
		}
	case PhaseSchedVeto1:
		if e.participating(vr, true) {
			e.core.ObserveVeto1(cha.HasVeto(rx.Msgs), rx.Collision)
		}
	case PhaseSchedVeto2:
		if e.participating(vr, true) {
			e.finishInstance(rx)
		}
	case PhaseUnschedBallot:
		if e.participating(vr, false) && subslot == e.d.schedule.SlotOf(e.vn) {
			e.observeBallots(rx)
		}
	case PhaseUnschedVeto1:
		if e.participating(vr, false) {
			e.core.ObserveVeto1(cha.HasVeto(rx.Msgs), rx.Collision)
		}
	case PhaseUnschedVeto2:
		if e.participating(vr, false) {
			e.finishInstance(rx)
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
	e.env.SleepUntil(e.nextDuty(r, vr))
}

// nextDuty returns the first round after r, a round of virtual round vr, in
// which the emulator as it now stands transmits or changes snapshotted
// state — the table in the Emulator comment, as offsets into the virtual
// round. The next client phase always is one, so the answer never lies
// further off than that.
func (e *Emulator) nextDuty(r sim.Round, vr int) sim.Round {
	s := e.d.timing.S
	per := e.d.timing.RoundsPerVRound()
	off, _ := e.clock(r)
	// Offsets: client 0, vn 1, sched ballot and vetoes 2-4, unsched ballot
	// slot k at 5+k, unsched vetoes s+7 and s+8, join s+9, join-ack s+10,
	// reset s+11.
	next := per
	if e.vn != None {
		switch sched := e.scheduled(vr); {
		case e.joined && sched:
			switch {
			case off < 4:
				next = off + 1
			case off < s+9:
				next = s + 9
			case off < s+11:
				next = off + 1
			}
		case e.joined:
			slot := 5 + e.d.schedule.SlotOf(e.vn)
			switch {
			case off < 1:
				next = 1
			case off < slot:
				next = slot
			case off < s+7:
				next = s + 7
			case off < s+10:
				next = off + 1
			}
		case sched: // a joiner in its virtual node's slot
			switch {
			case off < s+9:
				next = s + 9
			case off < s+11:
				next = off + 1
			}
		}
	}
	return r + sim.Round(next-off)
}

func (e *Emulator) observeBallots(rx sim.Reception) {
	if !e.began {
		// Defensive: a replica that joined mid-round skips the instance.
		return
	}
	b, heard := cha.MinBallotOf(rx.Msgs)
	e.core.ObserveMinBallot(b, heard, rx.Collision)
	e.mgr.Observe(cm.FeedbackOf(e.broadcastBallot, heard, rx.Collision))
}

// finishInstance closes the instance at the final veto phase, folds green
// outputs into the replica's checkpoint (bounding both local state and
// join-ack size, Section 3.5), and fires hooks.
func (e *Emulator) finishInstance(rx sim.Reception) {
	if !e.began {
		return
	}
	out := e.core.ObserveVeto2(cha.HasVeto(rx.Msgs), rx.Collision)
	if out.Color == cha.Green {
		e.fold(out)
	}
	if e.hooks != nil && e.hooks.OnOutput != nil {
		e.hooks.OnOutput(e.vn, out)
	}
}

// fold advances the checkpoint to a green instance: compute the agreed
// state through it, snapshot it, and garbage-collect the agreement layer.
func (e *Emulator) fold(out cha.Output) {
	state := e.cache.floorState
	prog := e.d.program(e.vn)
	for k := e.cache.floor + 1; k <= out.Instance; k++ {
		state = e.cache.apply(prog, state, out.History, k)
	}
	e.cache.resetAt(out.Instance, state)
	e.core.GC(out.Instance)
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
