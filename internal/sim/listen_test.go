package sim

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"vinfra/internal/geo"
)

// TestNodeStateSize pins the engine's per-node entry at 48 bytes on a
// 64-bit build: the listening round shares the word the wake round had, so
// a city of listeners costs no more memory for it.
func TestNodeStateSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pin is for 64-bit builds")
	}
	if size := unsafe.Sizeof(nodeState{}); size != 48 {
		t.Errorf("nodeState is %d bytes, want 48", size)
	}
}

// TestRound32Clamps: a round past math.MaxInt32 is held as math.MaxInt32,
// which wakes a node or ends its listening early, never late.
func TestRound32Clamps(t *testing.T) {
	for _, c := range []struct {
		r    Round
		want int32
	}{{0, 0}, {7, 7}, {math.MaxInt32, math.MaxInt32}, {math.MaxInt, math.MaxInt32}} {
		if got := round32(c.r); got != c.want {
			t.Errorf("round32(%d) = %d, want %d", c.r, got, c.want)
		}
	}
	if past := Round(math.MaxInt32); past+1 > past { // a 64-bit Round
		if got := round32(past + 1); got != math.MaxInt32 {
			t.Errorf("round32(%d) = %d, want %d", past+1, got, math.MaxInt32)
		}
	}
}

// hearingNode transmits now and then when it is called, and in most of its
// Receives declares a sleep, a listening stretch or both; it keeps what it
// declared and what the engine did with it, which the property test below
// predicts. A Receive in a round it was listening in is a wake-up: the node
// clears its own listening as the engine does.
type hearingNode struct {
	env          Env
	rnd          *rand.Rand
	wake, listen Round // as last declared; listen 0 once woken
	transmitted  bool  // Transmit was called this round
	received     bool  // Receive was called this round
}

func (n *hearingNode) Transmit(Round) Message {
	n.transmitted = true
	if n.rnd.Intn(4) == 0 {
		return int(n.env.ID())
	}
	return nil
}

func (n *hearingNode) Receive(r Round, _ Reception) {
	n.received = true
	if n.listen > r {
		n.listen = 0
	}
	switch n.rnd.Intn(4) {
	case 0:
		n.wake = r + 1 + Round(n.rnd.Intn(4))
		n.env.SleepUntil(n.wake)
	case 1:
		n.listen = r + 1 + Round(n.rnd.Intn(6))
		n.env.ListenUntil(n.listen)
	case 2:
		n.wake = r + 1 + Round(n.rnd.Intn(3))
		n.env.SleepUntil(n.wake)
		n.listen = n.wake + Round(n.rnd.Intn(5))
		n.env.ListenUntil(n.listen)
	}
}

// checkListenersAgainstBruteForce drives random sleeps and listening
// stretches, crashes, attaches and restores, and after every round holds
// the engine to the definition: a node whose radio is on is asked to
// Transmit unless it is listening, and handed its reception unless it is
// listening and the reception holds neither a message nor a collision
// indication; a listener handed one stops listening. The counts the engine
// keeps agree, and with sleepOff nobody listens.
func checkListenersAgainstBruteForce(t *testing.T, seed int64, opts ...Option) {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	e := NewEngine(diskMedium{r2: 6}, append([]Option{WithSeed(seed)}, opts...)...)
	defer e.Close()
	var nodes []*hearingNode
	attach := func(k int) {
		for ; k > 0; k-- {
			node := &hearingNode{rnd: rand.New(rand.NewSource(rnd.Int63()))}
			nodes = append(nodes, node)
			pos := geo.Point{X: rnd.Float64() * 40, Y: rnd.Float64() * 40}
			e.Attach(pos, roam, func(env Env) Node { node.env = env; return node })
		}
	}
	var heard []Reception
	e.OnRound(func(_ Round, _ []Transmission, rxs []Reception) { heard = append(heard[:0], rxs...) })
	attach(60)
	transmits, receptions, woken := 0, 0, 0
	for r := Round(0); r < 300; r++ {
		switch rnd.Intn(12) {
		case 0:
			e.Crash(NodeID(rnd.Intn(e.NumNodes())))
		case 1:
			attach(1 + rnd.Intn(3))
		case 2:
			if err := e.Restore(e.Snapshot()); err != nil {
				t.Fatal(err)
			}
			for _, n := range nodes {
				n.wake, n.listen = 0, 0 // a restore wakes everyone, and stops every listener
			}
		}
		type declared struct{ wake, listen Round }
		before := make([]declared, len(nodes))
		for i, n := range nodes {
			before[i] = declared{n.wake, n.listen}
			n.transmitted, n.received = false, false
		}
		e.Step()
		for id, n := range nodes {
			on := e.Alive(NodeID(id)) && before[id].wake <= r
			listening := on && before[id].listen > r
			rx := heard[id]
			wantTx := on && !listening
			wantRx := on && (!listening || len(rx.Msgs) > 0 || rx.Collision)
			if n.transmitted != wantTx || n.received != wantRx {
				t.Fatalf("seed %d round %d node %d (wake %d, listen %d, heard %+v): Transmit %v Receive %v, want %v and %v",
					seed, r, id, before[id].wake, before[id].listen, rx, n.transmitted, n.received, wantTx, wantRx)
			}
			if on {
				receptions++
			}
			if wantTx {
				transmits++
			}
			if listening && wantRx {
				woken++
			}
		}
	}
	c := e.Counts()
	if c.Transmits != transmits || c.Receptions != receptions || c.Woken != woken {
		t.Fatalf("seed %d: counted %d Transmit calls, %d receptions, %d wake-ups; want %d, %d, %d",
			seed, c.Transmits, c.Receptions, c.Woken, transmits, receptions, woken)
	}
	if woken == 0 || transmits == receptions {
		t.Fatalf("seed %d: %d wake-ups and %d listener-rounds: the bed did not exercise listening", seed, woken, receptions-transmits)
	}
}

func TestListenersMatchBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		checkListenersAgainstBruteForce(t, seed)
	}
}

func TestParallelListenersMatchBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		checkListenersAgainstBruteForce(t, seed, WithWorkers(3))
	}
}

func TestShardedListenersMatchBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		checkListenersAgainstBruteForce(t, seed, WithWorkers(4),
			WithRegionShards(2, 2, 10, func() Medium { return diskMedium{r2: 6} }))
	}
}

// TestSleepOffStopsListening: with SleepUntil and ListenUntil ignored, every
// alive node is asked to Transmit and handed its reception every round —
// the engine the sleep oracles compare against.
func TestSleepOffStopsListening(t *testing.T) {
	sleepOffFor(func() {
		e := NewEngine(diskMedium{r2: 6}, WithSeed(3))
		rnd := rand.New(rand.NewSource(3))
		for i := 0; i < 40; i++ {
			node := &hearingNode{rnd: rand.New(rand.NewSource(rnd.Int63()))}
			e.Attach(geo.Point{X: rnd.Float64() * 40, Y: rnd.Float64() * 40}, nil, func(env Env) Node { node.env = env; return node })
		}
		e.Run(50)
		if c := e.Counts(); c.Transmits != 40*50 || c.Receptions != 40*50 || c.Woken != 0 {
			t.Errorf("with sleep off, %d Transmit calls, %d receptions and %d wake-ups; want %d, %d and 0", c.Transmits, c.Receptions, c.Woken, 40*50, 40*50)
		}
	})
}
