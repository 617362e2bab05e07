package vi_test

import (
	"fmt"
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

// calls returns the Transmit and Receive calls since the last time it was
// asked.
func (c *countedNode) calls() [2]int {
	n := [2]int{c.transmits, c.receives}
	c.transmits, c.receives = 0, 0
	return n
}

// TestClientSleepsOutsideItsPhases pins the duty cycles by their exact call
// counts, Transmit and Receive, virtual round by virtual round: of its s+12
// radio rounds the engine calls a client in two — the client phase and the
// vn phase, and the client program still hears what the virtual node
// broadcast — and an emulator in the rounds of vi.Emulator's duty table
// that it is awake for. A replica is awake for 4 — client, vn, its ballot
// and veto-2 — and listens in veto-1 and the join sub-protocol: one more
// round, Transmit and Receive, when its core is red and sends a veto-1, and
// when it hears a join request it is woken for it (a Receive); a replica of
// the scheduled virtual node then stays up for join-ack and reset, one of an
// unscheduled virtual node keeps listening in join-ack. A
// joiner in its virtual node's slot is up for 4 — through reset, where
// after an ack it is a replica that saw no join activity and only listens —
// and a joiner out of it or a device outside every region for 1.
func TestClientSleepsOutsideItsPhases(t *testing.T) {
	// Two virtual nodes in conflict range: a schedule of length two, so each
	// is scheduled every other virtual round — virtual node 0 in the odd ones.
	tb := newTestbed(t, testbedOpts{
		locs:        []geo.Point{{X: 0, Y: 0}, {X: 12, Y: 0}},
		replicasPer: 2,
		leaders:     true,
	})
	if s := tb.dep.Schedule(); s.Len() != 2 || s.SlotOf(0) != 0 {
		t.Fatalf("schedule length %d with virtual node 0 in slot %d, want 2 and 0", s.Len(), s.SlotOf(0))
	}
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
	joins, resets := 0, 0
	emulator := func(at geo.Point, bootstrap bool) *countedNode {
		c := &countedNode{}
		tb.eng.Attach(at, nil, func(env sim.Env) sim.Node {
			em := tb.dep.NewEmulator(env, bootstrap)
			em.SetHooks(&vi.EmulatorHooks{
				OnJoin:  func(vi.VNodeID, int) { joins++ },
				OnReset: func(vi.VNodeID, int) { resets++ },
			})
			c.Node = em
			return c
		})
		return c
	}
	replica := [2]*countedNode{
		emulator(geo.Point{X: 0.4, Y: 0.2}, true),
		emulator(geo.Point{X: 12.4, Y: 0.2}, true),
	}
	outsider := emulator(geo.Point{X: 6, Y: 30}, true)
	check := func(vr int, who string, c *countedNode, want [2]int) {
		t.Helper()
		if got := c.calls(); got != want {
			t.Fatalf("virtual round %d: %s was called %d/%d times (Transmit/Receive), want %d/%d", vr, who, got[0], got[1], want[0], want[1])
		}
	}
	quiet := [2]int{4, 4}
	var joiner, orphan *countedNode
	for vr := 1; vr <= 8; vr++ {
		switch vr {
		case 4:
			// Into virtual node 0's region as it goes unscheduled: idle for
			// this virtual round, acked by the replicas in the next.
			joiner = emulator(geo.Point{X: -0.6, Y: -0.3}, false)
		case 6:
			// Virtual node 1 loses every replica; the device that then wanders
			// in finds nobody to ack it and resets the virtual node.
			for _, id := range []sim.NodeID{2, 3, 6} {
				tb.eng.Crash(id)
			}
			replica[1] = nil
			orphan = emulator(geo.Point{X: 11.5, Y: -0.4}, false)
		}
		tb.runVRounds(1)
		check(vr, "the client", client, [2]int{2, 2})
		check(vr, "the device outside every region", outsider, [2]int{1, 1})
		// The join request of virtual round 5 (virtual node 0's slot) and 6
		// (virtual node 1's) wakes every replica that hears it: virtual node
		// 0's acks and guards the reset, an unscheduled one's still only
		// listens in join-ack — called there in virtual round 5 for the ack
		// it hears, not in 6, where nobody is left to ack.
		woken := map[int][2][2]int{5: {{6, 7}, {4, 6}}, 6: {{4, 5}}}
		for v, c := range replica {
			want := quiet
			if w, ok := woken[vr]; ok && v < len(w) {
				want = w[v]
			}
			if c != nil {
				check(vr, fmt.Sprintf("a replica of virtual node %d", v), c, want)
			}
		}
		switch {
		case vr == 4:
			check(vr, "the joiner out of its slot", joiner, [2]int{1, 1})
		case vr == 5:
			// Acked in join-ack, it listens in reset and hears the guard.
			check(vr, "the joiner in its slot", joiner, [2]int{3, 4})
			if joins != 1 {
				t.Fatalf("the joiner was acked %d times by the end of its slot, want once", joins)
			}
		case vr == 6:
			check(vr, "the joiner turned replica", joiner, woken[6][0])
		case vr > 6:
			check(vr, "the joiner turned replica", joiner, quiet)
		}
		switch {
		case vr == 6:
			check(vr, "the orphan in its slot", orphan, [2]int{4, 4})
			if resets != 1 {
				t.Fatalf("the orphan reset its virtual node %d times by the end of its slot, want once", resets)
			}
		case vr > 6:
			// Its virtual node's leader crashed, so no ballot is ever heard,
			// its core is red and it sends a veto-1 every virtual round.
			check(vr, "the orphan turned replica", orphan, [2]int{5, 5})
		}
	}
	if steps != 8 || heard == 0 {
		t.Errorf("the client program was stepped %d times and heard %d messages; want 8 steps and the virtual node's broadcasts", steps, heard)
	}
}
