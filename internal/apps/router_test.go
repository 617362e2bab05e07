package apps_test

import (
	"testing"

	"vinfra/internal/apps"
	"vinfra/internal/geo"
	"vinfra/internal/vi"
)

func TestRouteParseRoundTrips(t *testing.T) {
	m := apps.RouteSend(geo.Point{X: 12, Y: -3.5}, "pkt1", "hello|world")
	if m == nil {
		t.Fatal("nil send message")
	}
	// Delivery parse.
	d := apps.DeliverMsg("pkt1", "hello|world")
	if id, body, ok := apps.ParseDelivery(d.Payload); !ok || id != "pkt1" || body != "hello|world" {
		t.Errorf("ParseDelivery = %q %q %v", id, body, ok)
	}
	if _, _, ok := apps.ParseDelivery(d.Payload[:len(d.Payload)-1]); ok {
		t.Error("truncated delivery accepted")
	}
	if _, _, ok := apps.ParseDelivery(apps.DeliverMsg("", "b").Payload); ok {
		t.Error("delivery with empty id accepted")
	}
	if _, _, ok := apps.ParseDelivery(m.Payload); ok {
		t.Error("wrong tag accepted")
	}
	if _, _, ok := apps.ParseDelivery(nil); ok {
		t.Error("empty payload accepted")
	}
}

// lineLocs builds a 1-D chain of virtual nodes spaced 5 apart (within
// R1/2 so VN broadcasts reach neighbors).
func lineLocs(n int) []geo.Point {
	locs := make([]geo.Point, n)
	for i := range locs {
		locs[i] = geo.Point{X: 5 * float64(i)}
	}
	return locs
}

func TestRouterDeliversAcrossChain(t *testing.T) {
	locs := lineLocs(4) // vn0 at x=0 ... vn3 at x=15
	sched := vi.BuildSchedule(locs, testRadii)
	h := newHarness(t, locs, 2, apps.RouterProgram(sched, locs))

	sender := &apps.RouterClient{
		Sends: map[int]*vi.Message{
			2: apps.RouteSend(geo.Point{X: 15}, "pkt-a", "hello-remote"),
		},
	}
	receiver := &apps.RouterClient{}
	h.addClient(geo.Point{X: 0.8, Y: -1.2}, sender)
	h.addClient(geo.Point{X: 15.5, Y: 1.2}, receiver)

	// The packet must traverse vn0 -> vn1 -> vn2 -> vn3; each hop costs up
	// to s virtual rounds (the relay broadcasts when scheduled).
	h.runVRounds(40)

	if len(receiver.Received) != 1 {
		t.Fatalf("receiver got %d packets, want 1", len(receiver.Received))
	}
	if receiver.Received[0].ID != "pkt-a" || receiver.Received[0].Body != "hello-remote" {
		t.Errorf("delivered packet = %+v", receiver.Received[0])
	}
}

func TestRouterLocalDelivery(t *testing.T) {
	locs := lineLocs(2)
	sched := vi.BuildSchedule(locs, testRadii)
	h := newHarness(t, locs, 2, apps.RouterProgram(sched, locs))

	sender := &apps.RouterClient{
		Sends: map[int]*vi.Message{
			2: apps.RouteSend(geo.Point{X: 0.2}, "pkt-local", "near"),
		},
	}
	h.addClient(geo.Point{X: 0.8, Y: -1.2}, sender)
	h.runVRounds(12)

	// The sender itself hears the local VN's delivery broadcast.
	if len(sender.Received) != 1 || sender.Received[0].ID != "pkt-local" {
		t.Fatalf("local delivery failed: %+v", sender.Received)
	}
}

func TestRouterDuplicateSuppression(t *testing.T) {
	locs := lineLocs(2)
	sched := vi.BuildSchedule(locs, testRadii)
	h := newHarness(t, locs, 2, apps.RouterProgram(sched, locs))

	// The same packet injected twice must be delivered once.
	sender := &apps.RouterClient{
		Sends: map[int]*vi.Message{
			2: apps.RouteSend(geo.Point{X: 5}, "pkt-dup", "payload"),
			5: apps.RouteSend(geo.Point{X: 5}, "pkt-dup", "payload"),
		},
	}
	receiver := &apps.RouterClient{}
	h.addClient(geo.Point{X: 0.8, Y: -1.2}, sender)
	h.addClient(geo.Point{X: 5.8, Y: 1.2}, receiver)
	h.runVRounds(25)

	if len(receiver.Received) != 1 {
		t.Errorf("duplicate suppression failed: got %d deliveries", len(receiver.Received))
	}
}

func TestRouterProgramGreedyRule(t *testing.T) {
	// Unit-level: a relay from a node closer to the destination than us
	// must not be adopted (no backward forwarding).
	locs := lineLocs(3)
	sched := vi.BuildSchedule(locs, testRadii)
	prog := apps.RouterProgram(sched, locs)(0) // vn0 at x=0
	st := prog.Init(0, locs[0])

	// A relay originating at x=5 (closer to dst x=10 than vn0 is): vn0
	// must ignore it.
	relay := apps.RelayMsg(geo.Point{X: 5}, apps.Packet{ID: "pk", Dst: geo.Point{X: 10}, TTL: 8, Body: "body"})
	st = prog.OnRound(st, 1, pl(relay))
	if out := prog.Outgoing(st, 1); out != nil {
		t.Errorf("vn0 adopted a backward packet: %+v", out)
	}
}

func TestAllocAssignsUniqueAddresses(t *testing.T) {
	locs := []geo.Point{{X: 0, Y: 0}}
	sched := vi.BuildSchedule(locs, testRadii)
	h := newHarness(t, locs, 3, apps.AllocProgram(sched))

	clients := []*apps.AllocClient{
		{Name: "alice"}, {Name: "bob"}, {Name: "carol"},
	}
	positions := []geo.Point{{X: 1.2, Y: 0.8}, {X: -1.2, Y: 0.9}, {X: 0.1, Y: -1.5}}
	for i, c := range clients {
		h.addClient(positions[i], c)
	}
	h.runVRounds(40)

	seen := make(map[int]string)
	for _, c := range clients {
		if !c.Assigned {
			t.Fatalf("client %s never got an address", c.Name)
		}
		if other, dup := seen[c.Addr]; dup {
			t.Errorf("address %d assigned to both %s and %s", c.Addr, other, c.Name)
		}
		seen[c.Addr] = c.Name
		if c.Addr < 0 || c.Addr >= apps.BlockSize {
			t.Errorf("address %d outside vn0's block", c.Addr)
		}
	}
}

func TestAllocIdempotentRequests(t *testing.T) {
	prog := apps.AllocProgram(vi.BuildSchedule([]geo.Point{{}}, testRadii))(0)
	st := prog.Init(0, geo.Point{})
	st = prog.OnRound(st, 1, pl(apps.AllocRequest("x")))
	st = prog.OnRound(st, 2, pl(apps.AllocRequest("x"), apps.AllocRequest("x")))
	out := prog.Outgoing(st, 1)
	if out == nil {
		t.Fatal("allocator with leases must broadcast")
	}
	name, addr, ok := apps.ParseAssignment(out.Payload)
	if !ok || name != "x" || addr != 0 {
		t.Errorf("assignment = %q %d %v", name, addr, ok)
	}
	// Release then re-request: gets a fresh address (no reuse in this
	// simple policy).
	st = prog.OnRound(st, 3, pl(apps.AllocRelease("x")))
	st = prog.OnRound(st, 4, pl(apps.AllocRequest("x")))
	_, addr2, _ := apps.ParseAssignment(prog.Outgoing(st, 4).Payload)
	if addr2 != 1 {
		t.Errorf("re-leased address = %d, want 1", addr2)
	}
}

func TestAllocBlocksDisjointAcrossVNodes(t *testing.T) {
	sched := vi.BuildSchedule(lineLocs(2), testRadii)
	prog0 := apps.AllocProgram(sched)(0)
	prog1 := apps.AllocProgram(sched)(1)
	s0 := prog0.OnRound(prog0.Init(0, geo.Point{}), 1, pl(apps.AllocRequest("a")))
	s1 := prog1.OnRound(prog1.Init(1, geo.Point{X: 5}), 1, pl(apps.AllocRequest("a")))
	// Each node broadcasts only in its scheduled virtual rounds: vn0 in
	// odd vrounds (slot 0), vn1 in even vrounds (slot 1).
	_, a0, _ := apps.ParseAssignment(prog0.Outgoing(s0, 3).Payload)
	_, a1, _ := apps.ParseAssignment(prog1.Outgoing(s1, 2).Payload)
	if a0/apps.BlockSize == a1/apps.BlockSize {
		t.Errorf("blocks overlap: %d and %d", a0, a1)
	}
}

func TestParseAssignmentErrors(t *testing.T) {
	sched := vi.BuildSchedule([]geo.Point{{}}, testRadii)
	prog := apps.AllocProgram(sched)(0)
	st := prog.OnRound(prog.Init(0, geo.Point{}), 1, pl(apps.AllocRequest("a|b")))
	out := prog.Outgoing(st, 2)
	if out == nil {
		t.Fatal("allocator with leases must broadcast")
	}
	// Names containing old-format separators parse exactly (the encoding
	// is length-prefixed, not delimiter-based).
	if name, addr, ok := apps.ParseAssignment(out.Payload); !ok || name != "a|b" || addr != 0 {
		t.Errorf("ParseAssignment = %q %d %v", name, addr, ok)
	}
	if _, _, ok := apps.ParseAssignment(out.Payload[:len(out.Payload)-1]); ok {
		t.Error("truncated assignment accepted")
	}
	if _, _, ok := apps.ParseAssignment(apps.AllocRequest("x").Payload); ok {
		t.Error("wrong tag accepted")
	}
	if _, _, ok := apps.ParseAssignment(nil); ok {
		t.Error("empty payload accepted")
	}
}
