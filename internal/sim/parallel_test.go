package sim

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"vinfra/internal/geo"
)

// runEcho drives a mobile echo cluster for some rounds and returns
// everything observable: per-node reception logs and final positions.
func runEcho(nodes, rounds int, opts ...Option) ([][][]Message, []geo.Point) {
	e := NewEngine(perfectMedium{}, append([]Option{WithSeed(42)}, opts...)...)
	echoes := make([]*echoNode, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		e.Attach(geo.Point{X: float64(i)}, roam, func(env Env) Node {
			echoes[i] = &echoNode{env: env}
			return echoes[i]
		})
	}
	e.CrashAt(NodeID(nodes/2), Round(rounds/2))
	e.Run(rounds)
	heard := make([][][]Message, nodes)
	pos := make([]geo.Point, nodes)
	for i, n := range echoes {
		heard[i] = n.heard
		pos[i] = e.Position(NodeID(i))
	}
	return heard, pos
}

// TestParallelEngineEqualsSequential is the engine-level half of the
// determinism contract: for the same seed, sharding rounds across any
// number of workers yields exactly the reception logs and trajectories of
// the sequential run.
func TestParallelEngineEqualsSequential(t *testing.T) {
	const nodes, rounds = 33, 12
	wantHeard, wantPos := runEcho(nodes, rounds)
	for _, opt := range []Option{WithWorkers(0), WithWorkers(1), WithWorkers(3), WithWorkers(64)} {
		for rep := 0; rep < 3; rep++ {
			heard, pos := runEcho(nodes, rounds, opt)
			if !reflect.DeepEqual(heard, wantHeard) {
				t.Fatalf("parallel reception log diverged from sequential")
			}
			if !reflect.DeepEqual(pos, wantPos) {
				t.Fatalf("parallel trajectories diverged from sequential")
			}
		}
	}
}

// churnResult is everything observable from a churn run: per-node reception
// logs, send counts, final positions and liveness.
type churnResult struct {
	heard [][][]Message
	sent  []int
	pos   []geo.Point
	alive []bool
}

// runChurnScenario drives a cluster through the full churn surface — mid-run
// Attach, CrashAt in the past / at the current round / in the future, Leave,
// and immediate Crash — under the given engine options.
func runChurnScenario(opts ...Option) churnResult {
	e := NewEngine(perfectMedium{}, append([]Option{WithSeed(99)}, opts...)...)
	var echoes []*echoNode
	attach := func(n int) {
		for i := 0; i < n; i++ {
			pos := geo.Point{X: float64(len(echoes)), Y: 0.5 * float64(len(echoes)%7)}
			e.Attach(pos, roam, func(env Env) Node {
				node := &echoNode{env: env}
				echoes = append(echoes, node)
				return node
			})
		}
	}
	attach(24)
	e.Run(4)
	e.CrashAt(2, 1)         // past round: applies immediately
	e.Leave(5)              // immediate departure
	e.CrashAt(9, e.Round()) // current round: fires before its transmissions
	e.CrashAt(11, e.Round()+3)
	e.Run(3)
	attach(8) // mid-run joiners
	e.Crash(0)
	e.CrashAt(27, e.Round()+2)
	e.Run(6)

	res := churnResult{
		heard: make([][][]Message, len(echoes)),
		sent:  make([]int, len(echoes)),
		pos:   make([]geo.Point, len(echoes)),
		alive: make([]bool, len(echoes)),
	}
	for i, n := range echoes {
		res.heard[i] = n.heard
		res.sent[i] = n.sent
		res.pos[i] = e.Position(NodeID(i))
		res.alive[i] = e.Alive(NodeID(i))
	}
	return res
}

// TestParallelChurnEqualsSequential extends the determinism contract to the
// churn surface: mid-run Attach plus CrashAt/Leave/Crash under WithWorkers
// must produce receptions, trajectories and liveness identical to the
// sequential run.
func TestParallelChurnEqualsSequential(t *testing.T) {
	want := runChurnScenario()
	for _, opt := range []Option{WithWorkers(0), WithWorkers(2), WithWorkers(5), WithWorkers(32)} {
		for rep := 0; rep < 3; rep++ {
			got := runChurnScenario(opt)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("parallel churn run diverged from sequential")
			}
		}
	}
}

// meetNode's Transmit and Receive each complete one half of a two-party
// rendezvous over an unbuffered channel: the pair can only pass if the two
// nodes are stepped on different goroutines at the same time.
type meetNode struct {
	send   bool
	ch     chan struct{}
	missed *atomic.Int32
}

func (n *meetNode) meet() {
	if n.missed.Load() > 0 {
		return // already failed: don't sit out the remaining timeouts
	}
	timeout := time.After(5 * time.Second)
	if n.send {
		select {
		case n.ch <- struct{}{}:
		case <-timeout:
			n.missed.Add(1)
		}
		return
	}
	select {
	case <-n.ch:
	case <-timeout:
		n.missed.Add(1)
	}
}

func (n *meetNode) Transmit(Round) Message   { n.meet(); return nil }
func (n *meetNode) Receive(Round, Reception) { n.meet() }

// TestOneShardFansOutTransmitAndReceive fails if Transmit or Receive at
// one shard under WithWorkers(4) run on a single goroutine: the first and
// last alive nodes (always in different chunks) rendezvous in both phases,
// which a sequential walk of the alive list can never complete. One shard
// parallelises nothing in Deliver, but the node-ranged phases must still
// fan out, whether the shard is NewEngine's medium or a 1x1 grid.
func TestOneShardFansOutTransmitAndReceive(t *testing.T) {
	for name, opts := range map[string][]Option{
		"single medium": nil,
		"1x1 grid":      {WithRegionShards(1, 1, 10, func() Medium { return &nullMedium{} })},
	} {
		t.Run(name, func(t *testing.T) {
			e := NewEngine(&nullMedium{}, append(opts, WithWorkers(4))...)
			defer e.Close()
			const nodes, rounds = 16, 3
			ch := make(chan struct{})
			var missed atomic.Int32
			for i := 0; i < nodes; i++ {
				e.Attach(geo.Point{X: float64(i)}, nil, func(Env) Node {
					switch i {
					case 0:
						return &meetNode{send: true, ch: ch, missed: &missed}
					case nodes - 1:
						return &meetNode{ch: ch, missed: &missed}
					}
					return &silentNode{}
				})
			}
			e.Run(rounds)
			if n := missed.Load(); n != 0 {
				t.Fatalf("%d rendezvous halves timed out: Transmit/Receive did not run concurrently across chunks", n)
			}
		})
	}
}
