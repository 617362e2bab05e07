package vi_test

import (
	"testing"

	"vinfra/internal/geo"
	"vinfra/internal/sim"
	"vinfra/internal/vi"
)

// TestClientIgnoresProtocolTraffic checks that ballots, vetoes, join
// requests and reset guards — everything the emulation protocol puts on
// the air — never reach a client program's reception.
func TestClientIgnoresProtocolTraffic(t *testing.T) {
	tb := newTestbed(t, testbedOpts{
		locs:        []geo.Point{{X: 0, Y: 0}},
		replicasPer: 3,
		leaders:     true,
	})
	var all []vi.Message
	tb.addClient(geo.Point{X: 1, Y: -1}, vi.ClientFunc(
		func(vr int, recv []vi.Message, coll bool) *vi.Message {
			all = append(all, recv...)
			return nil
		}))
	// A joiner mid-run produces join/join-ack traffic too.
	tb.runVRounds(3)
	tb.eng.Attach(geo.Point{X: 0.5, Y: 0.5}, nil, func(env sim.Env) sim.Node {
		return tb.dep.NewEmulator(env, false)
	})
	tb.runVRounds(5)

	for _, m := range all {
		// Only VN broadcasts ("count=...") are expected: there are no
		// other clients to hear.
		if len(m.Payload) < 6 || string(m.Payload[:6]) != "count=" {
			t.Errorf("client program received protocol traffic: %q", m.Payload)
		}
	}
	if len(all) == 0 {
		t.Error("client heard nothing at all")
	}
}

// TestClientDoesNotHearItself verifies loopback filtering: a client's own
// broadcast is not delivered back to its program.
func TestClientDoesNotHearItself(t *testing.T) {
	tb := newTestbed(t, testbedOpts{
		locs:        []geo.Point{{X: 0, Y: 0}},
		replicasPer: 2,
		leaders:     true,
	})
	var heard []string
	tb.addClient(geo.Point{X: 1, Y: -1}, vi.ClientFunc(
		func(vr int, recv []vi.Message, coll bool) *vi.Message {
			for _, m := range recv {
				heard = append(heard, string(m.Payload))
			}
			return vi.Text("my-own-ping")
		}))
	tb.runVRounds(6)

	for _, h := range heard {
		if h == "my-own-ping" {
			t.Fatal("client heard its own broadcast")
		}
	}
}

// TestClientsHearEachOther: two clients near the same virtual node in
// different rounds hear each other's broadcasts (the virtual channel is a
// broadcast medium among clients too).
func TestClientsHearEachOther(t *testing.T) {
	tb := newTestbed(t, testbedOpts{
		locs:        []geo.Point{{X: 0, Y: 0}},
		replicasPer: 2,
		leaders:     true,
	})
	var heardByB []string
	tb.addClient(geo.Point{X: 1, Y: -1}, vi.ClientFunc(
		func(vr int, recv []vi.Message, coll bool) *vi.Message {
			if vr%2 == 1 {
				return vi.Text("from-a")
			}
			return nil
		}))
	tb.addClient(geo.Point{X: -1, Y: 1}, vi.ClientFunc(
		func(vr int, recv []vi.Message, coll bool) *vi.Message {
			for _, m := range recv {
				if string(m.Payload) == "from-a" {
					heardByB = append(heardByB, string(m.Payload))
				}
			}
			return nil
		}))
	tb.runVRounds(8)
	if len(heardByB) == 0 {
		t.Error("client B never heard client A")
	}
}

// TestClientCollisionIndication: two clients broadcasting in the same
// client phase collide; each observes the collision flag on the virtual
// channel.
func TestClientCollisionIndication(t *testing.T) {
	tb := newTestbed(t, testbedOpts{
		locs:        []geo.Point{{X: 0, Y: 0}},
		replicasPer: 2,
		leaders:     true,
	})
	sawCollision := 0
	mk := func(payload string) vi.ClientProgram {
		return vi.ClientFunc(func(vr int, recv []vi.Message, coll bool) *vi.Message {
			if coll {
				sawCollision++
			}
			return vi.Text(payload)
		})
	}
	tb.addClient(geo.Point{X: 1, Y: -1}, mk("a"))
	tb.addClient(geo.Point{X: -1, Y: 1}, mk("b"))
	tb.runVRounds(6)
	if sawCollision == 0 {
		t.Error("simultaneous client broadcasts should surface as collisions")
	}
}

// countedNode counts the engine's calls into the node it wraps.
type countedNode struct {
	sim.Node
	transmits, receives int
}

func (c *countedNode) Transmit(r sim.Round) sim.Message {
	c.transmits++
	return c.Node.Transmit(r)
}

func (c *countedNode) Receive(r sim.Round, rx sim.Reception) {
	c.receives++
	c.Node.Receive(r, rx)
}

// TestClientSleepsOutsideItsPhases pins the duty cycle by its call counts:
// of a virtual round's s+12 radio rounds the engine calls a client in two —
// the client phase and the vn phase — and an emulator in every one, and the
// client program still hears what the virtual node broadcast.
func TestClientSleepsOutsideItsPhases(t *testing.T) {
	tb := newTestbed(t, testbedOpts{
		locs:        []geo.Point{{X: 0, Y: 0}},
		replicasPer: 2,
		leaders:     true,
	})
	steps, heard := 0, 0
	client := &countedNode{}
	tb.eng.Attach(geo.Point{X: 1, Y: -1}, nil, func(env sim.Env) sim.Node {
		client.Node = tb.dep.NewClient(env, vi.ClientFunc(
			func(vr int, recv []vi.Message, _ bool) *vi.Message {
				steps++
				heard += len(recv)
				return vi.Text("ping")
			}))
		return client
	})
	emulator := &countedNode{}
	tb.eng.Attach(geo.Point{X: 0.4, Y: 0.2}, nil, func(env sim.Env) sim.Node {
		emulator.Node = tb.dep.NewEmulator(env, true)
		return emulator
	})

	per := tb.dep.Timing().RoundsPerVRound()
	for vr := 1; vr <= 5; vr++ {
		tb.runVRounds(1)
		if client.transmits != 2*vr || client.receives != 2*vr {
			t.Fatalf("after %d virtual rounds the client was called %d/%d times (Transmit/Receive), want %d each",
				vr, client.transmits, client.receives, 2*vr)
		}
		if emulator.transmits != per*vr || emulator.receives != per*vr {
			t.Fatalf("after %d virtual rounds the emulator was called %d/%d times, want %d each (s+12 = %d a virtual round)",
				vr, emulator.transmits, emulator.receives, per*vr, per)
		}
	}
	if steps != 5 || heard == 0 {
		t.Errorf("the client program was stepped %d times and heard %d messages; want 5 steps and the virtual node's broadcasts", steps, heard)
	}
}
