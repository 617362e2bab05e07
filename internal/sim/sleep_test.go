package sim

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"vinfra/internal/geo"
	"vinfra/internal/mobility"
)

// dutyNode is a duty-cycled device: its radio is on for the first `on`
// rounds of every `cycle` and it sleeps through the rest. In an on round it
// broadcasts when the round matches its stride and folds what it hears into
// sum; an off round it is awake for after all (the sleep-off oracle, the
// rounds right after a restore) is a no-op apart from declaring the sleep
// again — the shape of vi.Client.
type dutyNode struct {
	env       Env
	cycle, on int

	tx, rx []Round     // every round Transmit / Receive was called in
	heard  []Reception // what the on rounds received
	sum    uint64      // digest of heard: the node's snapshot state
}

func (n *dutyNode) Transmit(r Round) Message {
	n.tx = append(n.tx, r)
	if int(r)%n.cycle >= n.on || (int(r)+int(n.env.ID()))%3 != 0 {
		return nil
	}
	return [2]int{int(n.env.ID()), int(r)}
}

func (n *dutyNode) Receive(r Round, rx Reception) {
	n.rx = append(n.rx, r)
	off := int(r) % n.cycle
	if off < n.on {
		n.heard = append(n.heard, rx)
		for _, m := range rx.Msgs {
			p := m.([2]int)
			n.sum = n.sum*31 + uint64(p[0])*1000003 + uint64(p[1])
		}
		if rx.Collision {
			n.sum = n.sum*31 + 7
		}
	}
	if off >= n.on-1 {
		n.env.SleepUntil(r + Round(n.cycle-off))
	}
}

func (n *dutyNode) AppendState(dst []byte) []byte {
	return binary.BigEndian.AppendUint64(dst, n.sum)
}

func (n *dutyNode) RestoreState(data []byte) error {
	if len(data) != 8 {
		return fmt.Errorf("dutyNode state is %d bytes, want 8", len(data))
	}
	n.sum = binary.BigEndian.Uint64(data)
	return nil
}

// sleepOffFor runs fn with SleepUntil disabled (the oracle).
func sleepOffFor(fn func()) {
	sleepOff = true
	defer func() { sleepOff = false }()
	fn()
}

// dutyWorld is a roaming, churning population over a diskMedium world about
// five cells wide: duty-cycled nodes of several cycle lengths, with every
// sixth device a sparseEcho that never sleeps.
type dutyWorld struct {
	e      *Engine
	duty   []*dutyNode
	always []*sparseEcho
	txLog  [][]NodeID // per round, the senders the hooks saw
}

func newDutyWorld(opts ...Option) *dutyWorld {
	w := &dutyWorld{e: NewEngine(diskMedium{r2: 10}, append([]Option{WithSeed(11)}, opts...)...)}
	w.e.OnRound(func(_ Round, txs []Transmission, _ []Reception) {
		var ids []NodeID
		for _, tx := range txs {
			ids = append(ids, tx.Sender)
		}
		w.txLog = append(w.txLog, ids)
	})
	w.attach(48)
	return w
}

func (w *dutyWorld) attach(n int) {
	for i := 0; i < n; i++ {
		k := w.e.NumNodes()
		pos := geo.Point{X: float64(k%8) * 6.5, Y: float64(k/8) * 6.5}
		w.e.Attach(pos, roam, func(env Env) Node {
			if k%6 == 5 {
				node := &sparseEcho{env: env, burst: 2 + k%3}
				w.always = append(w.always, node)
				return node
			}
			node := &dutyNode{env: env, cycle: 4 + k%4, on: 1 + k%2}
			w.duty = append(w.duty, node)
			return node
		})
	}
}

// observed is everything a run of the duty world can tell an observer.
type observed struct {
	Heard  [][]Reception
	Echoed [][]Reception
	Sums   []uint64
	Pos    []geo.Point
	Alive  []bool
	TxLog  [][]NodeID
	Stats  Stats
	Snap   []byte
}

func (w *dutyWorld) observe() observed {
	o := observed{TxLog: w.txLog, Stats: w.e.Stats(), Snap: w.e.Snapshot().AppendTo(nil)}
	for _, n := range w.duty {
		o.Heard = append(o.Heard, n.heard)
		o.Sums = append(o.Sums, n.sum)
	}
	for _, n := range w.always {
		o.Echoed = append(o.Echoed, n.heard)
	}
	for i := 0; i < w.e.NumNodes(); i++ {
		o.Pos = append(o.Pos, w.e.Position(NodeID(i)))
		o.Alive = append(o.Alive, w.e.Alive(NodeID(i)))
	}
	return o
}

// runDutyScenario drives the duty world through the churn surface — crashes
// of sleeping and of awake nodes (scheduled, immediate, by a fault), a
// teleport, mid-run joiners between rounds and from inside a Strike.
func runDutyScenario(opts ...Option) observed {
	w := newDutyWorld(opts...)
	e := w.e
	e.AddFault(strikeFunc(func(r Round, ctl Control) {
		switch r {
		case 9:
			ctl.Crash(4)
			ctl.SetPosition(8, geo.Point{X: 70, Y: -20})
		case 13:
			w.attach(3)
		}
	}))
	e.Run(7)
	e.CrashAt(2, e.Round()+2)
	e.Leave(17)
	e.Run(9)
	w.attach(7)
	e.Crash(0)
	e.Run(20)
	return w.observe()
}

type strikeFunc func(r Round, ctl Control)

func (f strikeFunc) Strike(r Round, ctl Control) { f(r, ctl) }

// The engine-level oracle: a run in which nodes sleep is indistinguishable
// — receptions, trajectories, liveness, the hooks' transmission lists, stats
// and the encoded snapshot — from the same run with SleepUntil ignored.
//
// That holds on every engine, and — the snapshot's shard geometry and the
// halo count aside — across engines: every configuration with sleepers
// equals the sequential engine without.
func checkSleepUnobservable(t *testing.T, opts ...Option) {
	t.Helper()
	var want, sequential observed
	sleepOffFor(func() { want, sequential = runDutyScenario(opts...), runDutyScenario() })
	got := runDutyScenario(opts...)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("a run with sleepers diverged from the same run with SleepUntil ignored")
	}
	got.Snap, sequential.Snap = nil, nil
	got.Stats.HaloTransmissions = 0
	if !reflect.DeepEqual(got, sequential) {
		t.Fatal("a run with sleepers diverged from the sequential run with SleepUntil ignored")
	}
}

func TestSleepUnobservable(t *testing.T) { checkSleepUnobservable(t) }

func TestParallelSleepUnobservable(t *testing.T) {
	for _, k := range []int{2, 4, 9} {
		checkSleepUnobservable(t, WithWorkers(k))
	}
}

func TestShardedSleepUnobservable(t *testing.T) {
	shards := func(cols, rows int) Option {
		return WithRegionShards(cols, rows, 10, func() Medium { return diskMedium{r2: 10} })
	}
	checkSleepUnobservable(t, shards(2, 2))
	checkSleepUnobservable(t, shards(3, 2), WithWorkers(4))
	checkSleepUnobservable(t, shards(1, 1), WithWorkers(2))
}

// A snapshot taken while most devices are asleep restores into a fresh
// build — everyone awake — and runs on to the same snapshots, whether the
// restored engine then honours SleepUntil or ignores it.
func TestShardedSleepSnapshotRestoreFork(t *testing.T) {
	configs := map[string][]Option{
		"sequential": nil,
		"parallel":   {WithWorkers(4)},
		"sharded": {WithWorkers(3), WithRegionShards(2, 2, 10, func() Medium {
			return diskMedium{r2: 10}
		})},
	}
	for name, opts := range configs {
		t.Run(name, func(t *testing.T) {
			a := newDutyWorld(opts...)
			a.e.Run(23)
			if asleep := len(a.e.alive) - len(a.e.awake); asleep < len(a.e.alive)/2 {
				t.Fatalf("only %d of %d devices asleep at the snapshot round", asleep, len(a.e.alive))
			}
			snap := a.e.Snapshot()

			restored, oracle := newDutyWorld(opts...), newDutyWorld(opts...)
			for _, w := range []*dutyWorld{restored, oracle} {
				if err := w.e.Restore(snap); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 30; i++ {
				a.e.Step()
				restored.e.Step()
				sleepOffFor(oracle.e.Step)
				want := a.e.Snapshot().AppendTo(nil)
				if got := restored.e.Snapshot().AppendTo(nil); !slices.Equal(got, want) {
					t.Fatalf("round %d: the restored engine diverged from the one that kept running", a.e.Round())
				}
				if got := oracle.e.Snapshot().AppendTo(nil); !slices.Equal(got, want) {
					t.Fatalf("round %d: the restored engine with SleepUntil ignored diverged from the one that kept running", a.e.Round())
				}
			}
		})
	}
}

// scriptNode calls do from inside Transmit and Receive and records the
// rounds it was called in and where it was.
type scriptNode struct {
	env    Env
	do     func(n *scriptNode, r Round, inTransmit bool)
	tx, rx []Round
	at     []geo.Point // Location at every Transmit
}

func (n *scriptNode) Transmit(r Round) Message {
	n.tx = append(n.tx, r)
	n.at = append(n.at, n.env.Location())
	if n.do != nil {
		n.do(n, r, true)
	}
	return benchMsg
}

func (n *scriptNode) Receive(r Round, _ Reception) {
	n.rx = append(n.rx, r)
	if n.do != nil {
		n.do(n, r, false)
	}
}

func rounds(rs ...Round) []Round { return rs }

// sleepAfterReceive sleeps until round `until` at the end of round `at`.
func sleepAfterReceive(at, until Round) func(*scriptNode, Round, bool) {
	return func(n *scriptNode, r Round, inTransmit bool) {
		if r == at && !inTransmit {
			n.env.SleepUntil(until)
		}
	}
}

// TestSleepEdges walks the edges of the sleep state: what else can happen
// to a node, or around it, while its radio is off.
func TestSleepEdges(t *testing.T) {
	attach := func(e *Engine, at geo.Point, wp *mobility.RandomWaypoint, do func(*scriptNode, Round, bool)) *scriptNode {
		n := &scriptNode{do: do}
		e.Attach(at, wp, func(env Env) Node { n.env = env; return n })
		return n
	}
	for _, tc := range []struct {
		name string
		opts []Option
		run  func(t *testing.T, e *Engine)
	}{
		{name: "a fault crashes a sleeping node", run: func(t *testing.T, e *Engine) {
			sleeper := attach(e, geo.Point{}, nil, sleepAfterReceive(0, 6))
			other := attach(e, geo.Point{X: 1}, nil, nil)
			e.AddFault(strikeFunc(func(r Round, ctl Control) {
				if r == 3 {
					ctl.Crash(0)
				}
			}))
			e.Run(10)
			if !slices.Equal(sleeper.rx, rounds(0)) || e.Alive(0) || e.AliveCount() != 1 {
				t.Errorf("crashed sleeper: Receive in %v, alive %v, %d alive; want [0], dead, 1", sleeper.rx, e.Alive(0), e.AliveCount())
			}
			pending := 0
			for _, head := range e.wakes {
				if head >= 0 {
					pending++
				}
			}
			if e.asleep != 0 || pending != 0 {
				t.Errorf("%d nodes counted asleep and %d wake files pending once the only sleeper is dead and due", e.asleep, pending)
			}
			if len(other.rx) != 10 {
				t.Errorf("the other node received %d rounds of 10", len(other.rx))
			}
		}},
		{name: "a fault attaches while others sleep", opts: []Option{WithWorkers(3)}, run: func(t *testing.T, e *Engine) {
			for i := 0; i < 6; i++ {
				do := sleepAfterReceive(0, 9)
				if i%3 == 0 {
					do = nil // nodes 0 and 3 stay up
				}
				attach(e, geo.Point{X: float64(i)}, nil, do)
			}
			var late *scriptNode
			e.AddFault(strikeFunc(func(r Round, _ Control) {
				if r == 4 {
					late = attach(e, geo.Point{X: 9}, nil, nil)
				}
			}))
			var senders [][]NodeID
			e.OnRound(func(_ Round, txs []Transmission, _ []Reception) {
				var ids []NodeID
				for _, tx := range txs {
					ids = append(ids, tx.Sender)
				}
				senders = append(senders, ids)
			})
			e.Run(11)
			if !slices.Equal(late.tx, rounds(4, 5, 6, 7, 8, 9, 10)) || !slices.Equal(late.rx, late.tx) {
				t.Errorf("newcomer called in %v / %v, want every round from 4", late.tx, late.rx)
			}
			want := [][]NodeID{0: {0, 1, 2, 3, 4, 5}, 3: {0, 3}, 4: {0, 3, 6}, 8: {0, 3, 6}, 9: {0, 1, 2, 3, 4, 5, 6}}
			for r, ids := range want {
				if ids != nil && !slices.Equal(senders[r], ids) {
					t.Errorf("round %d senders %v, want %v", r, senders[r], ids)
				}
			}
		}},
		{name: "SetPosition on a sleeper", opts: []Option{WithRegionShards(2, 1, 10, func() Medium { return &nullMedium{} })}, run: func(t *testing.T, e *Engine) {
			attach(e, geo.Point{X: 5}, nil, nil)
			attach(e, geo.Point{X: 15}, nil, nil)
			sleeper := attach(e, geo.Point{X: 6}, nil, sleepAfterReceive(0, 4))
			e.Run(2)
			// Two awake nodes in cells 0 and 1: one shard each.
			if got := []int{len(e.plane.infos[0]), len(e.plane.infos[1])}; !slices.Equal(got, []int{1, 1}) {
				t.Fatalf("residents per shard %v, want [1 1]", got)
			}
			e.SetPosition(2, geo.Point{X: 105})
			e.Step()
			// The sleeper's cell 10 stretches the fitted box to eleven cells,
			// six a shard: both awake nodes now live in shard 0.
			if got := []int{len(e.plane.infos[0]), len(e.plane.infos[1])}; !slices.Equal(got, []int{2, 0}) {
				t.Errorf("residents per shard %v after the sleeper moved, want [2 0]", got)
			}
			e.Run(2)
			if !slices.Equal(sleeper.tx, rounds(0, 4)) || sleeper.at[1] != (geo.Point{X: 105}) {
				t.Errorf("sleeper transmitted in %v, woke at %v; want [0 4] at x=105", sleeper.tx, sleeper.at[1:])
			}
			if got := []int{len(e.plane.infos[0]), len(e.plane.infos[1])}; !slices.Equal(got, []int{2, 1}) {
				t.Errorf("residents per shard %v once the sleeper woke, want [2 1]", got)
			}
		}},
		{name: "a past or current round is a no-op", run: func(t *testing.T, e *Engine) {
			n := attach(e, geo.Point{}, nil, func(n *scriptNode, r Round, _ bool) {
				n.env.SleepUntil(r - 3)
				n.env.SleepUntil(r)
				n.env.SleepUntil(r + 1) // the next round: awake for it anyway
			})
			e.Run(6)
			if len(n.tx) != 6 || len(n.rx) != 6 {
				t.Errorf("called in %v / %v, want every round", n.tx, n.rx)
			}
			if n.env.(*nodeState).wake != 0 || &e.awake[0] != &e.alive[0] {
				t.Error("a no-op SleepUntil left a wake round or an awake list of its own")
			}
		}},
		{name: "of two calls the later round wins", run: func(t *testing.T, e *Engine) {
			a := attach(e, geo.Point{}, nil, func(n *scriptNode, r Round, inTransmit bool) {
				if r == 1 && !inTransmit {
					n.env.SleepUntil(7)
					n.env.SleepUntil(4)
				}
			})
			b := attach(e, geo.Point{}, nil, func(n *scriptNode, r Round, inTransmit bool) {
				if r == 1 && !inTransmit {
					n.env.SleepUntil(4)
					n.env.SleepUntil(7)
				}
			})
			e.Run(9)
			for _, n := range []*scriptNode{a, b} {
				if !slices.Equal(n.rx, rounds(0, 1, 7, 8)) {
					t.Errorf("Receive in %v, want [0 1 7 8]", n.rx)
				}
			}
		}},
		{name: "sleeping from Transmit keeps that round's Receive", opts: []Option{WithWorkers(2)}, run: func(t *testing.T, e *Engine) {
			n := attach(e, geo.Point{}, nil, func(n *scriptNode, r Round, inTransmit bool) {
				if r == 2 && inTransmit {
					n.env.SleepUntil(5)
				}
			})
			attach(e, geo.Point{X: 1}, nil, nil)
			e.Run(7)
			if !slices.Equal(n.tx, rounds(0, 1, 2, 5, 6)) || !slices.Equal(n.rx, n.tx) {
				t.Errorf("called in %v / %v, want [0 1 2 5 6] both", n.tx, n.rx)
			}
		}},
		{name: "everyone asleep", opts: []Option{WithRegionShards(2, 1, 10, func() Medium { return &nullMedium{} })}, run: func(t *testing.T, e *Engine) {
			var nodes []*scriptNode
			for i := 0; i < 4; i++ {
				nodes = append(nodes, attach(e, geo.Point{X: float64(i)}, drift, sleepAfterReceive(0, 8)))
			}
			hooked := 0
			e.OnRound(func(_ Round, txs []Transmission, rxs []Reception) {
				hooked++
				if r := e.Round() - 1; r > 0 && r < 8 && (len(txs) != 0 || len(rxs) != 4) {
					t.Errorf("round %d: hook saw %d transmissions and %d receptions, want 0 and 4", r, len(txs), len(rxs))
				}
			})
			e.Run(8)
			if len(e.awake) != 0 || e.AliveCount() != 4 {
				t.Fatalf("%d awake, %d alive; want 0 and 4", len(e.awake), e.AliveCount())
			}
			st := e.Stats()
			if e.Round() != 8 || st.Rounds != 8 || st.Transmissions != 4 || hooked != 8 {
				t.Errorf("round %d, stats %+v, %d hook calls; want 8 rounds, 4 transmissions, 8 calls", e.Round(), st, hooked)
			}
			if want := drifted(3, 8); e.Position(3) != want {
				t.Errorf("sleeper drifted to %v, want %v (drift: +1 a round)", e.Position(3), want)
			}
			e.Run(2)
			if !slices.Equal(nodes[0].rx, rounds(0, 8, 9)) {
				t.Errorf("Receive in %v, want [0 8 9]", nodes[0].rx)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(&nullMedium{}, append([]Option{WithSeed(3)}, tc.opts...)...)
			defer e.Close()
			tc.run(t, e)
		})
	}
}

// spyMedium records which receivers its last Deliver call was handed, as
// listed. Shard mediums deliver concurrently, so every spy keeps its own
// record.
type spyMedium struct {
	Medium
	seen []NodeInfo
}

func (m *spyMedium) Deliver(r Round, txs []Transmission, rxs []NodeInfo) []Reception {
	m.seen = append(m.seen[:0], rxs...)
	return m.Medium.Deliver(r, txs, rxs)
}

// TestShardedSleepersNeverReachTheMedium proves the mechanism is engaged,
// not merely harmless: every node is called in exactly its on rounds, and
// the mediums — the one-shard plane's and the 2x2 shards' alike — are handed
// exactly the awake nodes, in NodeID order, each where it stands: never a
// dead or a sleeping one.
func TestShardedSleepersNeverReachTheMedium(t *testing.T) {
	for _, sharded := range []bool{false, true} {
		var spies []*spyMedium
		spy := func() Medium {
			spies = append(spies, &spyMedium{Medium: diskMedium{r2: 10}})
			return spies[len(spies)-1]
		}
		opts := []Option{WithWorkers(2)}
		if sharded {
			opts = append(opts, WithRegionShards(2, 2, 10, spy))
		}
		e := NewEngine(spy(), opts...)
		var nodes []*dutyNode
		for k := 0; k < 40; k++ {
			pos := geo.Point{X: float64(k%8) * 6.5, Y: float64(k/8) * 6.5}
			e.Attach(pos, roam, func(env Env) Node {
				n := &dutyNode{env: env, cycle: 3 + k%5, on: 1 + k%2}
				nodes = append(nodes, n)
				return n
			})
		}
		e.Crash(7)
		for r := Round(0); r < 40; r++ {
			for _, m := range spies {
				m.seen = nil // a shard with no residents is not called
			}
			e.Step()
			var seen []NodeInfo
			for _, m := range spies {
				if !slices.IsSortedFunc(m.seen, func(a, b NodeInfo) int { return int(a.ID - b.ID) }) {
					t.Fatalf("round %d: a medium was handed receivers out of NodeID order: %v", r, m.seen)
				}
				seen = append(seen, m.seen...)
			}
			slices.SortFunc(seen, func(a, b NodeInfo) int { return int(a.ID - b.ID) })
			var want []NodeInfo
			for id, n := range nodes {
				if id != 7 && int(r)%n.cycle < n.on {
					want = append(want, NodeInfo{ID: NodeID(id), At: e.Position(NodeID(id)), Alive: true})
				}
			}
			if !slices.Equal(seen, want) {
				t.Fatalf("round %d (sharded %v): the mediums were handed %v, want the awake nodes %v", r, sharded, seen, want)
			}
		}
		e.Close()
		for id, n := range nodes {
			var want []Round
			for r := 0; r < 40 && id != 7; r++ {
				if r%n.cycle < n.on {
					want = append(want, Round(r))
				}
			}
			if !slices.Equal(n.tx, want) || !slices.Equal(n.rx, want) {
				t.Fatalf("node %d (on %d of %d) called in %v / %v, want %v", id, n.on, n.cycle, n.tx, n.rx, want)
			}
		}
	}
}
