package vi

import (
	"bytes"
	"fmt"
	"math"

	"vinfra/internal/cha"
	"vinfra/internal/cm"
	"vinfra/internal/geo"
	"vinfra/internal/sim"
)

// Deployment describes a virtual infrastructure: the fixed virtual-node
// locations, the radio parameters, the broadcast schedule derived from
// them, and the per-virtual-node programs. It is immutable and shared by
// every emulator and client.
type Deployment struct {
	locs     []geo.Point
	regionIx *geo.CellIndex // cell size R1/4: RegionOf is a 3x3-cell probe
	radii    geo.Radii
	schedule Schedule
	timing   Timing
	programs []Program // one per virtual node, shared by all its replicas
	vmax     float64
	newCM    func(v VNodeID, env sim.Env) cm.Manager
}

// DeploymentConfig parameterizes NewDeployment.
type DeploymentConfig struct {
	// Locations are the virtual node positions. Required, non-empty.
	Locations []geo.Point
	// Radii are the quasi-unit-disk radio parameters. Required.
	Radii geo.Radii
	// Program supplies each virtual node's automaton. Required. It is
	// called once per virtual node, by NewDeployment: a program is a
	// deterministic automaton every replica of the node shares, its state
	// the byte strings it is handed, never anything it closes over.
	Program func(VNodeID) Program
	// VMax bounds device speed; it shrinks the regional contention
	// manager's leader-eligibility margin (Section 4.2). Optional.
	VMax float64
	// NewCM overrides the regional contention manager factory. Optional;
	// the default is a Regional backoff manager per virtual node.
	NewCM func(v VNodeID, env sim.Env) cm.Manager
}

// NewDeployment validates the configuration, builds the schedule, and
// returns the deployment.
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
	d := &Deployment{
		locs:     append([]geo.Point(nil), cfg.Locations...),
		radii:    cfg.Radii,
		programs: make([]Program, len(cfg.Locations)),
		vmax:     cfg.VMax,
	}
	for v := range d.programs {
		d.programs[v] = cfg.Program(VNodeID(v))
	}
	d.regionIx = geo.BuildCellIndex(d.locs, d.RegionRadius())
	d.schedule = BuildSchedule(d.locs, d.radii)
	d.timing = Timing{S: d.schedule.Len()}
	if cfg.NewCM != nil {
		d.newCM = cfg.NewCM
	} else {
		d.newCM = func(v VNodeID, env sim.Env) cm.Manager {
			return cm.NewRegional(cm.RegionalConfig{
				Location: d.locs[v],
				Radius:   d.RegionRadius(),
				VMax:     d.vmax,
				Horizon:  d.timing.LeaderHorizon(),
			})(env)
		}
	}
	return d, nil
}

// program returns virtual node v's automaton.
func (d *Deployment) program(v VNodeID) Program { return d.programs[v] }

// RegionRadius returns the replication region radius around each virtual
// node location: R1/4 (Section 4).
func (d *Deployment) RegionRadius() float64 { return d.radii.R1 / 4 }

// Timing returns the deployment's virtual round timing.
func (d *Deployment) Timing() Timing { return d.timing }

// Schedule returns the deployment's broadcast schedule.
func (d *Deployment) Schedule() Schedule { return d.schedule }

// Locations returns a copy of the virtual node locations: the deployment is
// shared by every emulator and client, so callers get their own slice
// rather than a window into shared state.
func (d *Deployment) Locations() []geo.Point {
	return append([]geo.Point(nil), d.locs...)
}

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
	hooks EmulatorHooks

	vn     VNodeID // current region's virtual node (None when outside)
	joined bool

	// The clock and region caches. The two small fields fill joined's
	// padding, so the caches add 24 bytes to an emulator.
	atOK  bool      // at is the location checkRegion last evaluated
	sched int8      // scheduled(vr) for vn: 0 not yet worked out, 1 no, 2 yes
	vr    int       // the virtual round the clock last read (from 1); 0 none
	at    geo.Point // see atOK

	mgr   cm.Manager
	core  *cha.Core
	cache *stateCache

	// Per-virtual-round scratch state. input.Msgs reuses its backing array
	// across virtual rounds (the encoded proposal copies the bytes out), so
	// the steady-state message sub-protocol allocates nothing here.
	input           RoundInput // accumulating message sub-protocol input
	began           bool       // whether Begin was called this vround
	expectedPayload []byte     // own VN's expected broadcast payload this vround
	broadcastBallot bool
	sawJoinActivity bool // join request or collision in join/join-ack phases

	// Joiner scratch state.
	requested bool // sent a join request this vround
	gotAck    bool
}

var _ sim.Node = (*Emulator)(nil)

// NewEmulator builds an emulator for the deployment. If bootstrap is true
// and the device starts inside a region, it begins as a full replica of
// that virtual node in its initial state (the deployment's round-0
// bootstrap); otherwise it acquires state through the join protocol.
func (d *Deployment) NewEmulator(env sim.Env, bootstrap bool) *Emulator {
	e := &Emulator{env: env, d: d, vn: None}
	if bootstrap {
		if v := d.RegionOf(env.Location()); v != None {
			e.enterRegion(v)
			e.becomeReplica(0, d.program(v).Init(v, d.locs[v]), cha.NewCore())
		}
	}
	return e
}

// SetHooks installs lifecycle hooks (call before running).
func (e *Emulator) SetHooks(h EmulatorHooks) { e.hooks = h }

// VNode returns the virtual node this emulator currently serves, or None.
func (e *Emulator) VNode() VNodeID { return e.vn }

// Joined reports whether the emulator is a full replica of its region's
// virtual node.
func (e *Emulator) Joined() bool { return e.joined }

// Core exposes the agreement state machine (nil before joining).
func (e *Emulator) Core() *cha.Core { return e.core }

// StateBefore returns the emulator's estimate of its virtual node's state
// entering virtual round vr (1-based). It is only meaningful while joined.
// The returned slice is owned by the emulator's state cache; callers must
// not mutate it.
func (e *Emulator) StateBefore(vr int) []byte {
	return e.cache.stateBefore(e.core.HistoryView(), vr)
}

func (e *Emulator) enterRegion(v VNodeID) {
	e.vn = v
	e.sched = 0
	e.joined = false
	e.mgr = e.d.newCM(v, e.env)
	e.core = nil
	e.cache = nil
	e.requested = false
	e.gotAck = false
}

func (e *Emulator) leaveRegion() {
	e.vn = None
	e.joined = false
	e.mgr = nil
	e.core = nil
	e.cache = nil
}

// becomeReplica installs agreement and application state as of instance
// floor, making the emulator a full replica.
func (e *Emulator) becomeReplica(floor cha.Instance, state []byte, core *cha.Core) {
	e.core = core
	e.cache = newStateCache(e.d.program(e.vn), e.vn, e.d.locs[e.vn])
	e.cache.resetAt(floor, state)
	e.joined = true
}

// checkRegion re-evaluates region membership at the start of each virtual
// round. A device standing, bit for bit, where the last evaluation found it
// is still in the region that evaluation chose — e.vn has changed since only
// if Restore replaced it, and Restore forgets the location — so the lookup
// is skipped.
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
		e.enterRegion(v)
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
		return e.transmitVN(r, vr)
	case PhaseSchedBallot:
		if e.participating(vr, true) {
			return e.transmitBallot(r, vr)
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
			return e.transmitBallot(r, vr)
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
		if e.joined && e.sawJoinActivity && e.scheduled(vr) && e.mgr.Advice(r) {
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
func (e *Emulator) transmitVN(r sim.Round, vr int) sim.Message {
	if e.vn == None || !e.joined {
		return nil
	}
	state := e.cache.stateBefore(e.core.HistoryView(), vr)
	out := e.d.program(e.vn).Outgoing(state, vr)
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
	if e.mgr.Advice(r) {
		e.input.VNBroadcast = true
		return VNMsg{Payload: out.Payload}
	}
	return nil
}

func (e *Emulator) transmitBallot(r sim.Round, vr int) sim.Message {
	b := e.core.Begin(cha.Instance(vr), e.input.Encode())
	e.began = true
	e.broadcastBallot = e.mgr.Advice(r)
	if e.broadcastBallot {
		return cha.BallotMsg{B: b}
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
			e.observeBallots(r, rx)
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
			e.observeBallots(r, rx)
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

func (e *Emulator) observeBallots(r sim.Round, rx sim.Reception) {
	if !e.began {
		// Defensive: a replica that joined mid-round skips the instance.
		return
	}
	b, heard := cha.MinBallotOf(rx.Msgs)
	e.core.ObserveMinBallot(b, heard, rx.Collision)
	e.mgr.Observe(r, ballotFeedback(e.broadcastBallot, heard, rx.Collision))
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
	if e.hooks.OnOutput != nil {
		e.hooks.OnOutput(e.vn, out)
	}
}

// fold advances the checkpoint to a green instance: compute the agreed
// state through it, snapshot it, and garbage-collect the agreement layer.
func (e *Emulator) fold(out cha.Output) {
	state := e.cache.floorState
	prog := e.d.program(e.vn)
	for k := e.cache.floor + 1; k <= out.Instance; k++ {
		state = applyInstance(prog, state, out.History, k)
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
	if e.hooks.OnJoin != nil {
		e.hooks.OnJoin(e.vn, vr)
	}
}

// resetVNode revives a dead virtual node in its initial state
// (Section 4.3: safe only after the reset phase stayed silent).
func (e *Emulator) resetVNode(vr int) {
	core := cha.NewCore()
	core.ResetAt(cha.Instance(vr))
	init := e.d.program(e.vn).Init(e.vn, e.d.locs[e.vn])
	e.becomeReplica(cha.Instance(vr), init, core)
	if e.hooks.OnReset != nil {
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

func ballotFeedback(broadcast, gotBallot, collision bool) cm.Feedback {
	switch {
	case collision:
		return cm.FeedbackCollision
	case broadcast && gotBallot:
		return cm.FeedbackWon
	case gotBallot:
		return cm.FeedbackLost
	default:
		return cm.FeedbackSilence
	}
}
