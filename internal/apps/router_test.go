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
	h := newHarness(t, locs, 2, apps.RouterProgram(locs))

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
	h := newHarness(t, locs, 2, apps.RouterProgram(locs))

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
	h := newHarness(t, locs, 2, apps.RouterProgram(locs))

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
	prog := apps.RouterProgram(locs)(0, sched) // vn0 at x=0
	st := prog.Init(0, locs[0])

	// A relay originating at x=5 (closer to dst x=10 than vn0 is): vn0
	// must ignore it.
	relay := apps.RelayMsg(geo.Point{X: 5}, apps.Packet{ID: "pk", Dst: geo.Point{X: 10}, TTL: 8, Body: "body"})
	st = prog.OnRound(st, 1, pl(relay))
	if out := prog.Outgoing(st, 1); out != nil {
		t.Errorf("vn0 adopted a backward packet: %+v", out)
	}
}
