package sim

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"vinfra/internal/geo"
)

// TestRouseCostFollowsWhatChanged pins the bound on rouse's work: the
// entries it looks at in a round are a small multiple of the nodes that were
// awake before it plus the nodes it woke, and one bitmap word per 64 nodes
// attached — never the population. 10 000 devices sleep from round 0 to wake
// rounds staggered one a round, each up for a single round; any rouse that
// walks the alive list looks at 10 000 entries a round here.
func TestRouseCostFollowsWhatChanged(t *testing.T) {
	const n = 10_000
	e := NewEngine(&nullMedium{})
	for i := 0; i < n; i++ {
		e.Attach(geo.Point{X: float64(i)}, nil, func(env Env) Node {
			return &scriptNode{env: env, do: func(_ *scriptNode, r Round, inTransmit bool) {
				if !inTransmit {
					// Up in round 10+id for the first time, then every n rounds.
					env.SleepUntil(r + 1 + (Round(env.ID())+9+n-r%n)%n)
				}
			}}
		})
	}
	e.Run(10) // everybody falls asleep in round 1: one pass over the 10 000
	for r := 10; r < 400; r++ {
		before, prev := e.rouseWork, len(e.awake)
		e.Step()
		woken := 1
		if got, limit := e.rouseWork-before, 4*(prev+woken)+n/64+1; got > limit {
			t.Fatalf("round %d: rouse looked at %d entries with %d awake before and %d woken, want at most %d", r, got, prev, woken, limit)
		}
		if len(e.awake) != 1 || e.awake[0].id != NodeID(r-10) || e.asleep != n-1 {
			t.Fatalf("round %d: %d nodes awake, %d asleep; want node %d alone", r, len(e.awake), e.asleep, r-10)
		}
	}
}

// fickleNode transmits whenever it is called and then, most rounds, sleeps
// for a while; wake is what it last asked for, which the property test below
// reads to predict the awake list.
type fickleNode struct {
	env  Env
	rnd  *rand.Rand
	wake Round
	last Reception
}

func (n *fickleNode) Transmit(Round) Message { return int(n.env.ID()) }

func (n *fickleNode) Receive(r Round, rx Reception) {
	n.last = rx
	if n.rnd.Intn(3) > 0 {
		n.wake = r + 1 + Round(n.rnd.Intn(9))
		n.env.SleepUntil(n.wake)
	}
}

// checkAwakeListAgainstBruteForce drives random sleeps, wakes, crashes of
// sleeping and of awake nodes, attaches between rounds and from inside a
// Strike, teleports and restores, and after every round holds the engine's
// incremental bookkeeping to the definition: awake is the alive nodes whose
// wake round has come, in NodeID order; the transmissions are theirs, merged
// in NodeID order; a hook sees one reception per node ever attached, empty
// for the sleepers and the dead.
func checkAwakeListAgainstBruteForce(t *testing.T, seed int64, opts ...Option) {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	e := NewEngine(diskMedium{r2: 10}, append([]Option{WithSeed(seed)}, opts...)...)
	defer e.Close()
	var nodes []*fickleNode
	attach := func(k int) {
		for ; k > 0; k-- {
			node := &fickleNode{rnd: rand.New(rand.NewSource(rnd.Int63()))}
			nodes = append(nodes, node)
			pos := geo.Point{X: rnd.Float64() * 40, Y: rnd.Float64() * 40}
			e.Attach(pos, roamMover{}, func(env Env) Node { node.env = env; return node })
		}
	}
	e.AddFault(strikeFunc(func(r Round, ctl Control) {
		switch r % 7 {
		case 3:
			attach(1 + rnd.Intn(3))
		case 5:
			ctl.Crash(NodeID(rnd.Intn(ctl.NumNodes())))
		}
	}))
	var senders []NodeID
	var hooked []Reception
	e.OnRound(func(_ Round, txs []Transmission, rxs []Reception) {
		senders = senders[:0]
		for _, tx := range txs {
			senders = append(senders, tx.Sender)
		}
		hooked = append(hooked[:0], rxs...)
	})
	attach(70)
	for r := Round(0); r < 300; r++ {
		switch rnd.Intn(12) {
		case 0:
			e.Crash(NodeID(rnd.Intn(e.NumNodes())))
		case 1:
			e.CrashAt(NodeID(rnd.Intn(e.NumNodes())), r+Round(rnd.Intn(4)))
		case 2:
			attach(1 + rnd.Intn(4))
		case 3:
			e.SetPosition(NodeID(rnd.Intn(e.NumNodes())), geo.Point{X: rnd.Float64() * 90, Y: rnd.Float64() * 90})
		case 4:
			if err := e.Restore(e.Snapshot()); err != nil {
				t.Fatal(err)
			}
			for _, n := range nodes {
				n.wake = 0 // a restore wakes everyone
			}
		}
		wakes := make([]Round, len(nodes)) // as declared before this round
		for i, n := range nodes {
			wakes[i] = n.wake
		}
		e.Step()
		var want []NodeID
		for id := range nodes { // the Strike's newcomers included: awake from their first round
			if e.Alive(NodeID(id)) && (id >= len(wakes) || wakes[id] <= r) {
				want = append(want, NodeID(id))
			}
		}
		var got []NodeID
		for _, st := range e.awake {
			got = append(got, st.id)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d round %d: the awake list is %v, want %v", seed, r, got, want)
		}
		if !slices.Equal(senders, want) {
			t.Fatalf("seed %d round %d: transmissions merged as %v, want the awake nodes' in NodeID order %v", seed, r, senders, want)
		}
		if e.asleep != e.AliveCount()-len(want) {
			t.Fatalf("seed %d round %d: %d nodes counted asleep, want %d", seed, r, e.asleep, e.AliveCount()-len(want))
		}
		if len(hooked) != e.NumNodes() {
			t.Fatalf("seed %d round %d: the hook saw %d receptions for %d nodes", seed, r, len(hooked), e.NumNodes())
		}
		for id, rx := range hooked {
			if _, awake := slices.BinarySearch(want, NodeID(id)); !awake {
				if rx.Msgs != nil || rx.Collision {
					t.Fatalf("seed %d round %d: the hook saw %+v for node %d, asleep or dead; want the empty reception", seed, r, rx, id)
				}
			} else if !reflect.DeepEqual(rx, nodes[id].last) {
				t.Fatalf("seed %d round %d: the hook saw %+v for node %d, which received %+v", seed, r, rx, id, nodes[id].last)
			}
		}
	}
}

func TestAwakeListMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		checkAwakeListAgainstBruteForce(t, seed)
	}
}

func TestParallelAwakeListMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		checkAwakeListAgainstBruteForce(t, seed, WithWorkers(3))
	}
}

func TestShardedAwakeListMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		checkAwakeListAgainstBruteForce(t, seed, WithWorkers(4),
			WithRegionShards(2, 2, 10, func() Medium { return diskMedium{r2: 10} }))
	}
}

// TestShardedHookChangesNothing: the NodeID-indexed receptions are spread out
// for a hook's benefit only. The duty scenario — sleepers, crashes, joiners —
// with no hook registered encodes to the same snapshot after every round as
// with one, on every engine.
func TestShardedHookChangesNothing(t *testing.T) {
	for name, opts := range map[string][]Option{
		"sequential": nil,
		"parallel":   {WithWorkers(4)},
		"sharded":    {WithWorkers(3), WithRegionShards(2, 2, 10, func() Medium { return diskMedium{r2: 10} })},
	} {
		t.Run(name, func(t *testing.T) {
			hooked, bare := newDutyWorld(opts...), newDutyWorld(opts...)
			bare.e.hooks = nil
			for r := 0; r < 40; r++ {
				for _, w := range []*dutyWorld{hooked, bare} {
					switch r {
					case 9:
						w.e.Crash(4)
						w.e.CrashAt(2, w.e.Round()+2)
					case 17:
						w.attach(5)
					}
					w.e.Step()
				}
				if len(bare.e.hookRxs) != 0 {
					t.Fatal("an engine without hooks spread its receptions out by NodeID")
				}
				if !bytes.Equal(hooked.e.Snapshot().AppendTo(nil), bare.e.Snapshot().AppendTo(nil)) {
					t.Fatalf("round %d: the engine with a hook diverged from the one without", r)
				}
			}
		})
	}
}
