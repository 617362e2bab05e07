package apps_test

import (
	"testing"

	"vinfra/internal/apps"
	"vinfra/internal/cd"
	"vinfra/internal/geo"
	"vinfra/internal/radio"
	"vinfra/internal/sim"
	"vinfra/internal/vi"
)

var testRadii = geo.Radii{R1: 10, R2: 20}

// harness wires a deployment with fixed-leader contention managers and
// static bootstrapped replicas. Writing leaders[v] hands virtual node v's
// leadership to another replica (the failover after a leader crash).
type harness struct {
	eng       *sim.Engine
	dep       *vi.Deployment
	emulators []*vi.Emulator
	leaders   []sim.NodeID
}

func newHarness(t *testing.T, locs []geo.Point, replicasPer int, program func(vi.VNodeID, vi.Schedule) vi.Program) *harness {
	t.Helper()
	leaders := make([]sim.NodeID, len(locs))
	for v := range leaders {
		leaders[v] = sim.NodeID(v * replicasPer)
	}
	dep, err := vi.NewDeployment(vi.DeploymentConfig{
		Locations: locs,
		Radii:     testRadii,
		Program:   program,
		Leaders:   leaders,
	})
	if err != nil {
		t.Fatal(err)
	}
	medium := radio.MustMedium(radio.Config{Radii: testRadii, Detector: cd.AC{}})
	h := &harness{eng: sim.NewEngine(medium), dep: dep, leaders: leaders}
	for _, loc := range locs {
		for i := 0; i < replicasPer; i++ {
			pos := geo.Point{X: loc.X + 0.3*float64(i) - 0.4, Y: loc.Y + 0.2}
			h.eng.Attach(pos, nil, func(env sim.Env) sim.Node {
				em := dep.NewEmulator(env, true)
				h.emulators = append(h.emulators, em)
				return em
			})
		}
	}
	return h
}

func (h *harness) addClient(pos geo.Point, prog vi.ClientProgram) {
	h.eng.Attach(pos, nil, func(env sim.Env) sim.Node {
		return h.dep.NewClient(env, prog)
	})
}

func (h *harness) runVRounds(n int) {
	h.eng.Run(n * h.dep.Timing().RoundsPerVRound())
}

// pl builds a RoundInput delivering the given messages' payloads.
func pl(ms ...*vi.Message) vi.RoundInput {
	var in vi.RoundInput
	for _, m := range ms {
		in.Msgs = append(in.Msgs, m.Payload)
	}
	return in
}

func TestRegisterWriteThenRead(t *testing.T) {
	locs := []geo.Point{{X: 0, Y: 0}}
	h := newHarness(t, locs, 3, apps.RegisterProgram)

	writer := &apps.RegisterWriter{Writes: map[int]string{2: "hello", 6: "world"}}
	reader := &apps.RegisterReader{}
	h.addClient(geo.Point{X: 1, Y: -1}, writer)
	h.addClient(geo.Point{X: -1, Y: -1}, reader)
	h.runVRounds(12)

	if len(reader.Observed) == 0 {
		t.Fatal("reader never observed the register")
	}
	last := reader.Observed[len(reader.Observed)-1]
	if last.Value != "world" || last.Version != 2 {
		t.Errorf("final observation = %+v, want version 2 value world", last)
	}
	// Versions are monotone (atomicity: a reader never sees time go
	// backwards on a single register).
	for i := 1; i < len(reader.Observed); i++ {
		if reader.Observed[i].Version < reader.Observed[i-1].Version {
			t.Errorf("version regressed: %+v -> %+v", reader.Observed[i-1], reader.Observed[i])
		}
	}
	// The writer observes its own writes applied.
	sawHello := false
	for _, o := range writer.Observed {
		if o.Value == "hello" {
			sawHello = true
		}
	}
	if !sawHello {
		t.Error("writer never saw its first write applied")
	}
}

// TestRegisterSurvivesLeaderCrash is the GeoQuorums setting (paper
// reference [13]): the register's leader replica crashes between two writes,
// leadership fails over to a survivor, and no write is lost.
func TestRegisterSurvivesLeaderCrash(t *testing.T) {
	locs := []geo.Point{{X: 0, Y: 0}}
	h := newHarness(t, locs, 4, apps.RegisterProgram)

	writer := &apps.RegisterWriter{Writes: map[int]string{3: "first", 9: "second"}}
	readers := []*apps.RegisterReader{{}, {}}
	h.addClient(geo.Point{X: 1.4, Y: -0.8}, writer)
	h.addClient(geo.Point{X: -1.4, Y: 0.8}, readers[0])
	h.addClient(geo.Point{X: 0.2, Y: 1.6}, readers[1])
	h.runVRounds(6)

	h.eng.Crash(0)
	h.leaders[0] = 1
	h.runVRounds(8)

	for i, r := range readers {
		if len(r.Observed) == 0 {
			t.Fatalf("reader %d observed nothing", i)
		}
		if last := r.Observed[len(r.Observed)-1]; last.Value != "second" {
			t.Errorf("reader %d ended on %+v, want value second", i, last)
		}
	}
}

func TestRegisterConcurrentWritersConverge(t *testing.T) {
	locs := []geo.Point{{X: 0, Y: 0}}
	h := newHarness(t, locs, 3, apps.RegisterProgram)

	// Two writers write in the same virtual round: both writes are in the
	// agreed round input; replicas apply them in canonical order, so every
	// reader converges to the same final value.
	w1 := &apps.RegisterWriter{Writes: map[int]string{3: "alpha"}}
	w2 := &apps.RegisterWriter{Writes: map[int]string{3: "beta"}}
	r1 := &apps.RegisterReader{}
	r2 := &apps.RegisterReader{}
	h.addClient(geo.Point{X: 1, Y: -1.2}, w1)
	h.addClient(geo.Point{X: -1, Y: 1.2}, w2)
	h.addClient(geo.Point{X: 1.4, Y: 1}, r1)
	h.addClient(geo.Point{X: -1.4, Y: -1}, r2)
	h.runVRounds(10)

	if len(r1.Observed) == 0 || len(r2.Observed) == 0 {
		t.Fatal("readers observed nothing")
	}
	f1 := r1.Observed[len(r1.Observed)-1]
	f2 := r2.Observed[len(r2.Observed)-1]
	if f1 != f2 {
		t.Errorf("readers diverged: %+v vs %+v", f1, f2)
	}
	// Note: both clients broadcast in the same client phase -> the virtual
	// channel may deliver both (spatial capture) or neither (collision).
	// Either way the outcome is identical at every reader.
}

func TestParseRegisterReply(t *testing.T) {
	sched := vi.BuildSchedule([]geo.Point{{}}, testRadii)
	prog := apps.RegisterProgram(0, sched)
	st := prog.Init(0, geo.Point{})
	st = prog.OnRound(st, 1, pl(apps.RegisterWrite("abc")))
	out := prog.Outgoing(st, 2)
	if out == nil {
		t.Fatal("scheduled register must broadcast")
	}
	v, val, ok := apps.ParseRegisterReply(out.Payload)
	if !ok || v != 1 || val != "abc" {
		t.Errorf("ParseRegisterReply = (%d, %q, %v), want (1, \"abc\", true)", v, val, ok)
	}
	if _, _, ok := apps.ParseRegisterReply(apps.RegisterWrite("x").Payload); ok {
		t.Error("write payload accepted as reply")
	}
	if _, _, ok := apps.ParseRegisterReply(out.Payload[:len(out.Payload)-1]); ok {
		t.Error("truncated reply accepted")
	}
	if _, _, ok := apps.ParseRegisterReply(nil); ok {
		t.Error("empty payload accepted")
	}
	if _, _, ok := apps.ParseRegisterReply(append(out.Payload[:len(out.Payload):len(out.Payload)], 0)); ok {
		t.Error("reply with trailing bytes accepted")
	}
}

func TestTrackerLocalSighting(t *testing.T) {
	locs := []geo.Point{{X: 0, Y: 0}}
	h := newHarness(t, locs, 3, apps.TrackerProgram)

	targetPos := geo.Point{X: 1.5, Y: 0.5}
	h.addClient(targetPos, &apps.TargetClient{
		Name:   "rover",
		Period: 2,
		Pos:    func() geo.Point { return targetPos },
	})
	observer := &apps.ObserverClient{}
	h.addClient(geo.Point{X: -1.5, Y: -0.5}, observer)
	h.runVRounds(10)

	sg, ok := observer.Lookup("rover")
	if !ok {
		t.Fatal("observer never learned about the rover")
	}
	if sg.X != 1.5 || sg.Y != 0.5 {
		t.Errorf("sighting = %+v, want (1.5, 0.5)", sg)
	}
}

func TestTrackerGossipAcrossVNodes(t *testing.T) {
	// The target beacons near VN0; an observer sits near VN1 out of the
	// target's radio range. The sighting must travel VN0 -> VN1 via the
	// virtual nodes' digest broadcasts.
	locs := []geo.Point{{X: 0, Y: 0}, {X: 5, Y: 0}}
	h := newHarness(t, locs, 2, apps.TrackerProgram)

	targetPos := geo.Point{X: -1.5, Y: 0}
	h.addClient(targetPos, &apps.TargetClient{
		Name:   "rover",
		Period: 2,
		Pos:    func() geo.Point { return targetPos },
	})
	observer := &apps.ObserverClient{}
	h.addClient(geo.Point{X: 6.5, Y: 0}, observer)
	h.runVRounds(16)

	if _, ok := observer.Lookup("rover"); !ok {
		t.Fatal("sighting never gossiped across virtual nodes")
	}
}

func TestTrackerDigestRoundTrip(t *testing.T) {
	sched := vi.BuildSchedule([]geo.Point{{}}, testRadii)
	prog := apps.TrackerProgram(0, sched)
	st := prog.Init(0, geo.Point{})
	st = prog.OnRound(st, 3, pl(apps.Beacon("a", geo.Point{X: 1, Y: 2})))
	st = prog.OnRound(st, 7, pl(apps.Beacon("b", geo.Point{X: 4.5, Y: -1.25})))
	out := prog.Outgoing(st, 8)
	if out == nil {
		t.Fatal("tracker with sightings must broadcast when scheduled")
	}
	sgs, ok := apps.ParseDigest(out.Payload)
	if !ok || len(sgs) != 2 {
		t.Fatalf("ParseDigest failed: %v %v", sgs, ok)
	}
	byName := map[string]apps.Sighting{}
	for _, sg := range sgs {
		byName[sg.Name] = sg
	}
	if a := byName["a"]; a.X != 1 || a.Y != 2 || a.VRound != 3 {
		t.Errorf("sighting a = %+v", a)
	}
	if b := byName["b"]; b.X != 4.5 || b.Y != -1.25 || b.VRound != 7 {
		t.Errorf("sighting b = %+v", b)
	}
	if _, ok := apps.ParseDigest(out.Payload[:len(out.Payload)-1]); ok {
		t.Error("truncated digest should fail")
	}
	if _, ok := apps.ParseDigest(apps.Beacon("a", geo.Point{}).Payload); ok {
		t.Error("wrong tag should fail")
	}
	if _, ok := apps.ParseDigest(nil); ok {
		t.Error("empty payload should fail")
	}
}

func TestLockMutualExclusion(t *testing.T) {
	locs := []geo.Point{{X: 0, Y: 0}}
	h := newHarness(t, locs, 3, apps.LockProgram)

	clients := []*apps.LockClient{
		{Name: "a", HoldRounds: 2, Cycles: 2},
		{Name: "b", HoldRounds: 2, Cycles: 2},
		{Name: "c", HoldRounds: 2, Cycles: 2},
	}
	positions := []geo.Point{{X: 1.3, Y: 0.8}, {X: -1.3, Y: 0.9}, {X: 0.1, Y: -1.6}}
	for i, c := range clients {
		h.addClient(positions[i], c)
	}
	h.runVRounds(60)

	total := 0
	for _, c := range clients {
		total += c.Completed()
	}
	if total < 4 {
		t.Errorf("only %d lock cycles completed in 60 rounds", total)
	}

	// Mutual exclusion: no virtual round is claimed by two clients.
	claimed := make(map[int]string)
	for _, c := range clients {
		for _, r := range c.CriticalRounds {
			if other, ok := claimed[r]; ok && other != c.Name {
				t.Fatalf("virtual round %d claimed by both %s and %s", r, other, c.Name)
			}
			claimed[r] = c.Name
		}
	}
}

func TestLockStateMachine(t *testing.T) {
	// Exercise the program end to end through its Program surface.
	prog := apps.LockProgram(0, vi.BuildSchedule([]geo.Point{{}}, testRadii))
	st := prog.Init(0, geo.Point{})
	st = prog.OnRound(st, 1, pl(apps.LockRequest("x"), apps.LockRequest("y")))
	out := prog.Outgoing(st, 1)
	if out == nil {
		t.Fatal("scheduled lock VN must broadcast")
	}
	holder, ok := apps.ParseGrant(out.Payload)
	if !ok || holder != "x" {
		t.Fatalf("holder = %q, want x", holder)
	}
	st = prog.OnRound(st, 2, pl(apps.LockRelease("x")))
	holder, _ = apps.ParseGrant(prog.Outgoing(st, 2).Payload)
	if holder != "y" {
		t.Errorf("after release, holder = %q, want y", holder)
	}
	st = prog.OnRound(st, 3, pl(apps.LockRelease("y")))
	holder, _ = apps.ParseGrant(prog.Outgoing(st, 3).Payload)
	if holder != "" {
		t.Errorf("after all releases, holder = %q, want free", holder)
	}
}

func TestLockDuplicateAndCancel(t *testing.T) {
	prog := apps.LockProgram(0, vi.BuildSchedule([]geo.Point{{}}, testRadii))
	st := prog.Init(0, geo.Point{})
	// Duplicate requests do not double-queue.
	st = prog.OnRound(st, 1, pl(apps.LockRequest("x"), apps.LockRequest("x"), apps.LockRequest("y"), apps.LockRequest("y")))
	st = prog.OnRound(st, 2, pl(apps.LockRelease("x")))
	holder, _ := apps.ParseGrant(prog.Outgoing(st, 2).Payload)
	if holder != "y" {
		t.Fatalf("holder = %q, want y", holder)
	}
	st = prog.OnRound(st, 3, pl(apps.LockRelease("y")))
	holder, _ = apps.ParseGrant(prog.Outgoing(st, 3).Payload)
	if holder != "" {
		t.Errorf("holder = %q, want free (no ghost queue entries)", holder)
	}
	// Cancelling a queued request removes it.
	st = prog.OnRound(st, 4, pl(apps.LockRequest("a"), apps.LockRequest("b")))
	st = prog.OnRound(st, 5, pl(apps.LockRelease("b"))) // b cancels while queued
	st = prog.OnRound(st, 6, pl(apps.LockRelease("a")))
	holder, _ = apps.ParseGrant(prog.Outgoing(st, 6).Payload)
	if holder != "" {
		t.Errorf("holder = %q after cancel+release, want free", holder)
	}
}

func TestTrackerCollisionRoundsDoNotCorruptState(t *testing.T) {
	// ⊥ rounds (agreement failures) reach the program as collision inputs;
	// the tracker must simply retain its state.
	prog := apps.TrackerProgram(0, vi.BuildSchedule([]geo.Point{{}}, testRadii))
	st := prog.Init(0, geo.Point{})
	st = prog.OnRound(st, 1, pl(apps.Beacon("r", geo.Point{X: 1, Y: 2})))
	st2 := prog.OnRound(st, 2, vi.RoundInput{Collision: true})
	out := prog.Outgoing(st2, 3)
	if out == nil {
		t.Fatal("tracker with state should broadcast when scheduled")
	}
	sgs, ok := apps.ParseDigest(out.Payload)
	if !ok || len(sgs) != 1 || sgs[0].Name != "r" {
		t.Errorf("digest after collision round = %v", sgs)
	}
}
