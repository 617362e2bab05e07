package vi_test

import (
	"fmt"
	"strings"
	"testing"

	"vinfra/internal/wire"

	"vinfra/internal/cd"
	"vinfra/internal/cha"
	"vinfra/internal/cm"
	"vinfra/internal/geo"
	"vinfra/internal/radio"
	"vinfra/internal/sim"
	"vinfra/internal/vi"
)

var testRadii = geo.Radii{R1: 10, R2: 20}

// counterState is a deliberately simple deterministic VN program state: it
// counts client messages and remembers everything it has heard.
type counterState struct {
	Pings  int
	Rounds int
	Heard  []string
}

// counterProgram counts messages and, when scheduled, broadcasts the count.
func counterProgram(sched vi.Schedule) func(vi.VNodeID) vi.Program {
	return func(v vi.VNodeID) vi.Program {
		return vi.Codec[counterState]{
			InitState: func(vi.VNodeID, geo.Point) counterState { return counterState{} },
			Step: func(s counterState, vround int, in vi.RoundInput) counterState {
				s.Rounds++
				s.Pings += len(in.Msgs)
				for _, m := range in.Msgs {
					s.Heard = append(s.Heard, string(m))
				}
				return s
			},
			Out: func(s counterState, vround int) *vi.Message {
				if !sched.ScheduledIn(v, vround-1) {
					return nil
				}
				return vi.Text(fmt.Sprintf("count=%d", s.Pings))
			},
			EncodeState: encodeCounterState,
			DecodeState: decodeCounterState,
		}
	}
}

func encodeCounterState(dst []byte, s counterState) []byte {
	dst = wire.AppendUvarint(dst, uint64(s.Pings))
	dst = wire.AppendUvarint(dst, uint64(s.Rounds))
	dst = wire.AppendUvarint(dst, uint64(len(s.Heard)))
	for _, h := range s.Heard {
		dst = wire.AppendString(dst, h)
	}
	return dst
}

func decodeCounterState(d *wire.Decoder) (counterState, error) {
	var s counterState
	s.Pings = int(d.Uvarint())
	s.Rounds = int(d.Uvarint())
	n := d.Uvarint()
	if d.Err() != nil || n > uint64(d.Rem()) {
		return counterState{}, wire.ErrMalformed
	}
	for i := uint64(0); i < n; i++ {
		s.Heard = append(s.Heard, d.String())
	}
	return s, d.Err()
}

// fixedLeaderCM builds a CM factory where, per virtual node, the node with
// the given engine ID is always the leader.
func fixedLeaderCM(leaders map[vi.VNodeID]sim.NodeID) func(vi.VNodeID, sim.Env) cm.Manager {
	return func(v vi.VNodeID, env sim.Env) cm.Manager {
		factory, _ := cm.NewFixed(leaders[v])
		return factory(env)
	}
}

type testbed struct {
	eng       *sim.Engine
	dep       *vi.Deployment
	emulators []*vi.Emulator
	clients   []*vi.Client
}

type testbedOpts struct {
	locs        []geo.Point
	replicasPer int
	seed        int64
	leaders     bool // use fixed-leader CMs (first replica of each region)
	adversary   radio.Adversary
	detector    cd.Detector
	// program overrides counterProgram, whose state remembers everything it
	// heard and so grows with the run.
	program func(vi.Schedule) func(vi.VNodeID) vi.Program
}

func newTestbed(t *testing.T, o testbedOpts) *testbed {
	t.Helper()
	if o.detector == nil {
		o.detector = cd.AC{}
	}
	if o.seed == 0 {
		o.seed = 1
	}
	if o.program == nil {
		o.program = counterProgram
	}
	cfg := vi.DeploymentConfig{
		Locations: o.locs,
		Radii:     testRadii,
		Program:   o.program(vi.BuildSchedule(o.locs, testRadii)),
	}
	if o.leaders {
		leaders := make(map[vi.VNodeID]sim.NodeID, len(o.locs))
		for v := range o.locs {
			// Replicas are attached per-region in order: region v's first
			// replica has ID v*replicasPer.
			leaders[vi.VNodeID(v)] = sim.NodeID(v * o.replicasPer)
		}
		cfg.NewCM = fixedLeaderCM(leaders)
	}
	dep, err := vi.NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}

	medium := radio.MustMedium(radio.Config{
		Radii:     testRadii,
		Detector:  o.detector,
		Adversary: o.adversary,
		Seed:      o.seed,
	})
	tb := &testbed{
		eng: sim.NewEngine(medium, sim.WithSeed(o.seed)),
		dep: dep,
	}
	for v, loc := range o.locs {
		for i := 0; i < o.replicasPer; i++ {
			pos := geo.Point{X: loc.X + 0.3*float64(i) - 0.5, Y: loc.Y + 0.2}
			tb.eng.Attach(pos, nil, func(env sim.Env) sim.Node {
				em := dep.NewEmulator(env, true)
				tb.emulators = append(tb.emulators, em)
				return em
			})
		}
		_ = v
	}
	return tb
}

// addClient attaches a client at pos with the given program.
func (tb *testbed) addClient(pos geo.Point, prog vi.ClientProgram) *vi.Client {
	var c *vi.Client
	tb.eng.Attach(pos, nil, func(env sim.Env) sim.Node {
		c = tb.dep.NewClient(env, prog)
		return c
	})
	tb.clients = append(tb.clients, c)
	return c
}

func (tb *testbed) runVRounds(n int) {
	tb.eng.Run(n * tb.dep.Timing().RoundsPerVRound())
}

func TestSingleVNodeGreenEveryRound(t *testing.T) {
	tb := newTestbed(t, testbedOpts{
		locs:        []geo.Point{{X: 0, Y: 0}},
		replicasPer: 3,
		leaders:     true,
	})
	greens := 0
	total := 0
	tb.emulators[0].SetHooks(vi.EmulatorHooks{
		OnOutput: func(v vi.VNodeID, out cha.Output) {
			total++
			if out.Color == cha.Green {
				greens++
			}
		},
	})
	tb.runVRounds(10)
	if total != 10 {
		t.Fatalf("outputs = %d, want 10 (one agreement instance per virtual round)", total)
	}
	if greens != 10 {
		t.Errorf("green rounds = %d/10 on a clean channel with a fixed leader", greens)
	}
}

func TestReplicasStayConsistent(t *testing.T) {
	tb := newTestbed(t, testbedOpts{
		locs:        []geo.Point{{X: 0, Y: 0}},
		replicasPer: 4,
		leaders:     true,
	})
	// A client pinging every virtual round gives the VN real inputs.
	tb.addClient(geo.Point{X: 1, Y: -1}, vi.ClientFunc(
		func(vr int, recv []vi.Message, coll bool) *vi.Message {
			return vi.Text(fmt.Sprintf("ping-%03d", vr))
		}))
	tb.runVRounds(12)

	// All replicas must compute the identical VN state.
	want := string(tb.emulators[0].StateBefore(13))
	for i, em := range tb.emulators[1:] {
		if got := string(em.StateBefore(13)); got != want {
			t.Errorf("replica %d diverged from replica 0", i+1)
		}
	}
}

func TestVNodeCountsClientPings(t *testing.T) {
	tb := newTestbed(t, testbedOpts{
		locs:        []geo.Point{{X: 0, Y: 0}},
		replicasPer: 3,
		leaders:     true,
	})
	const rounds = 10
	tb.addClient(geo.Point{X: 1, Y: -1}, vi.ClientFunc(
		func(vr int, recv []vi.Message, coll bool) *vi.Message {
			if vr > rounds {
				return nil
			}
			return vi.Text(fmt.Sprintf("ping-%03d", vr))
		}))
	tb.runVRounds(rounds + 2)

	// Decode the replica-0 state and check the count.
	var state counterState
	decodeTestState(t, tb.emulators[0].StateBefore(rounds+3), &state)
	if state.Pings != rounds {
		t.Errorf("VN counted %d pings, want %d (heard: %v)", state.Pings, rounds, state.Heard)
	}
}

func TestClientHearsVirtualNode(t *testing.T) {
	tb := newTestbed(t, testbedOpts{
		locs:        []geo.Point{{X: 0, Y: 0}},
		replicasPer: 3,
		leaders:     true,
	})
	var heard []string
	tb.addClient(geo.Point{X: 1, Y: -1}, vi.ClientFunc(
		func(vr int, recv []vi.Message, coll bool) *vi.Message {
			for _, m := range recv {
				heard = append(heard, string(m.Payload))
			}
			return vi.Text("ping")
		}))
	tb.runVRounds(8)
	counts := 0
	for _, h := range heard {
		if strings.HasPrefix(h, "count=") {
			counts++
		}
	}
	if counts < 5 {
		t.Errorf("client heard only %d VN broadcasts in 8 rounds: %v", counts, heard)
	}
}

func TestTwoVNodesCommunicate(t *testing.T) {
	// Two virtual nodes R1/2 apart: each VN's broadcasts reach the other's
	// replicas, so each VN's state should record the other's messages.
	tb := newTestbed(t, testbedOpts{
		locs:        []geo.Point{{X: 0, Y: 0}, {X: 5, Y: 0}},
		replicasPer: 2,
		leaders:     true,
	})
	tb.runVRounds(12)

	// VN1's replicas should have heard VN0's count broadcasts and vice
	// versa.
	var st0, st1 counterState
	decodeTestState(t, tb.emulators[0].StateBefore(13), &st0)
	decodeTestState(t, tb.emulators[2].StateBefore(13), &st1)
	if len(st1.Heard) == 0 {
		t.Error("VN1 never heard VN0's broadcasts")
	}
	if len(st0.Heard) == 0 {
		t.Error("VN0 never heard VN1's broadcasts")
	}
	for _, m := range st1.Heard {
		if !strings.HasPrefix(m, "count=") {
			t.Errorf("VN1 heard unexpected message %q", m)
		}
	}
}

func TestJoinTransfersState(t *testing.T) {
	tb := newTestbed(t, testbedOpts{
		locs:        []geo.Point{{X: 0, Y: 0}},
		replicasPer: 3,
		leaders:     true,
	})
	tb.addClient(geo.Point{X: 1, Y: -1}, vi.ClientFunc(
		func(vr int, recv []vi.Message, coll bool) *vi.Message {
			return vi.Text(fmt.Sprintf("ping-%03d", vr))
		}))
	tb.runVRounds(5)

	// A latecomer arrives inside the region without bootstrap state.
	var late *vi.Emulator
	joined := -1
	tb.eng.Attach(geo.Point{X: 0.5, Y: 0.5}, nil, func(env sim.Env) sim.Node {
		late = tb.dep.NewEmulator(env, false)
		late.SetHooks(vi.EmulatorHooks{
			OnJoin: func(v vi.VNodeID, vr int) { joined = vr },
		})
		return late
	})
	tb.runVRounds(4)

	if !late.Joined() {
		t.Fatal("latecomer never joined")
	}
	if joined < 6 || joined > 9 {
		t.Errorf("joined at vround %d, want within a few rounds of arrival", joined)
	}
	tb.runVRounds(3)
	// The latecomer now computes the same state as the old replicas.
	want := string(tb.emulators[0].StateBefore(13))
	if got := string(late.StateBefore(13)); got != want {
		t.Error("joined replica's state diverges from existing replicas")
	}
}

func TestResetRevivesDeadVNode(t *testing.T) {
	tb := newTestbed(t, testbedOpts{
		locs:        []geo.Point{{X: 0, Y: 0}},
		replicasPer: 2,
		leaders:     true,
	})
	tb.runVRounds(4)
	// Kill every replica: the virtual node fails.
	tb.eng.Crash(0)
	tb.eng.Crash(1)
	tb.runVRounds(2)

	// A newcomer arrives; with nobody to answer join or guard reset, it
	// must reset the virtual node.
	var late *vi.Emulator
	resetAt := -1
	tb.eng.Attach(geo.Point{X: 0.2, Y: 0.1}, nil, func(env sim.Env) sim.Node {
		late = tb.dep.NewEmulator(env, false)
		late.SetHooks(vi.EmulatorHooks{
			OnReset: func(v vi.VNodeID, vr int) { resetAt = vr },
		})
		return late
	})
	tb.runVRounds(4)

	if !late.Joined() {
		t.Fatal("newcomer never revived the virtual node")
	}
	if resetAt < 0 {
		t.Fatal("OnReset hook never fired")
	}
	// The revived VN runs from its initial state.
	var st counterState
	decodeTestState(t, late.StateBefore(resetAt+4), &st)
	if st.Pings != 0 {
		t.Errorf("revived VN state should be fresh, got %+v", st)
	}
}

func TestResetGuardPreventsStateLoss(t *testing.T) {
	tb := newTestbed(t, testbedOpts{
		locs:        []geo.Point{{X: 0, Y: 0}},
		replicasPer: 2,
		leaders:     true,
	})
	tb.runVRounds(4)

	// A newcomer arrives while live replicas exist: it must join via ack,
	// never reset.
	var late *vi.Emulator
	reset := false
	tb.eng.Attach(geo.Point{X: 0.2, Y: 0.1}, nil, func(env sim.Env) sim.Node {
		late = tb.dep.NewEmulator(env, false)
		late.SetHooks(vi.EmulatorHooks{
			OnReset: func(vi.VNodeID, int) { reset = true },
		})
		return late
	})
	tb.runVRounds(4)

	if reset {
		t.Error("newcomer reset a live virtual node")
	}
	if !late.Joined() {
		t.Error("newcomer failed to join a live virtual node")
	}
}

func TestEmulationOverheadConstantInReplicas(t *testing.T) {
	// E5: the rounds-per-virtual-round is s+12, independent of replica
	// count; more replicas do not add rounds (they add only transmissions
	// within the same phases).
	for _, replicas := range []int{1, 3, 6} {
		tb := newTestbed(t, testbedOpts{
			locs:        []geo.Point{{X: 0, Y: 0}},
			replicasPer: replicas,
			leaders:     true,
		})
		per := tb.dep.Timing().RoundsPerVRound()
		if per != 13 { // s=1 for a single VN: 10 + 3
			t.Fatalf("replicas=%d: rounds per vround = %d, want 13", replicas, per)
		}
		tb.runVRounds(5)
		if got := tb.eng.Stats().Rounds; got != 5*per {
			t.Errorf("replicas=%d: engine ran %d rounds, want %d", replicas, got, 5*per)
		}
	}
}

func TestDeploymentValidation(t *testing.T) {
	base := vi.DeploymentConfig{
		Locations: []geo.Point{{}},
		Radii:     testRadii,
		Program:   counterProgram(vi.BuildSchedule([]geo.Point{{}}, testRadii)),
	}
	if _, err := vi.NewDeployment(base); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := base
	bad.Locations = nil
	if _, err := vi.NewDeployment(bad); err == nil {
		t.Error("empty locations accepted")
	}
	bad = base
	bad.Radii = geo.Radii{R1: 5, R2: 1}
	if _, err := vi.NewDeployment(bad); err == nil {
		t.Error("invalid radii accepted")
	}
	bad = base
	bad.Program = nil
	if _, err := vi.NewDeployment(bad); err == nil {
		t.Error("missing program accepted")
	}
}

func TestRegionOf(t *testing.T) {
	dep, err := vi.NewDeployment(vi.DeploymentConfig{
		Locations: []geo.Point{{X: 0}, {X: 6}},
		Radii:     testRadii,
		Program:   counterProgram(vi.BuildSchedule([]geo.Point{{X: 0}, {X: 6}}, testRadii)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := dep.RegionOf(geo.Point{X: 1}); got != 0 {
		t.Errorf("RegionOf(1,0) = %d, want 0", got)
	}
	if got := dep.RegionOf(geo.Point{X: 5}); got != 1 {
		t.Errorf("RegionOf(5,0) = %d, want 1", got)
	}
	if got := dep.RegionOf(geo.Point{X: 3, Y: 3}); got != vi.None {
		t.Errorf("RegionOf(3,3) = %d, want None", got)
	}
	if dep.RegionRadius() != 2.5 {
		t.Errorf("RegionRadius = %v, want R1/4 = 2.5", dep.RegionRadius())
	}
}

// decodeTestState decodes a wire-encoded counter state produced by
// counterProgram's codec.
func decodeTestState(t *testing.T, raw []byte, out *counterState) {
	t.Helper()
	d := wire.Dec(raw)
	s, err := decodeCounterState(&d)
	if err == nil {
		err = d.Finish()
	}
	if err != nil {
		t.Fatalf("decode state: %v", err)
	}
	*out = s
}
