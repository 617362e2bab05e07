package sim

import (
	"reflect"
	"testing"

	"vinfra/internal/geo"
)

// diskMedium is a geometric test medium honoring the sharded-delivery
// contract: each receiver hears exactly the transmissions from other nodes
// within range (in transmission order) plus its own, and flags a collision
// when two or more others are in range — every reception is a pure
// function of (round, receiver, in-range transmissions), with no global
// state, so shard-local delivery with a candidate superset must be
// byte-identical to a global one. (perfectMedium delivers everything to
// everyone and therefore cannot be sharded.)
type diskMedium struct {
	r2 float64
}

func (m diskMedium) Deliver(r Round, txs []Transmission, rxs []NodeInfo) []Reception {
	out := make([]Reception, len(rxs))
	for i, rx := range rxs {
		out[i] = Reception{}
		if !rx.Alive {
			continue
		}
		var msgs []Message
		others := 0
		for _, tx := range txs {
			if tx.Sender == rx.ID {
				msgs = append([]Message{tx.Msg}, msgs...)
				continue
			}
			if tx.From.Dist2(rx.At) <= m.r2*m.r2 {
				others++
				msgs = append(msgs, tx.Msg)
			}
		}
		out[i].Msgs = msgs
		out[i].Collision = others >= 2
	}
	return out
}

// roamMover takes larger deterministic random steps than wanderMover so
// nodes migrate across shard rectangles within a short run.
type roamMover struct{}

func (roamMover) Move(_ Round, cur geo.Point, rnd func(n int) int) geo.Point {
	return geo.Point{
		X: cur.X + float64(rnd(7)-3)*1.5,
		Y: cur.Y + float64(rnd(7)-3)*1.5,
	}
}

// sparseEcho transmits only on a per-node stride (so rounds mix senders,
// listeners and contention) and records full receptions including the
// collision flag.
type sparseEcho struct {
	env   Env
	burst int
	heard []Reception
}

func (n *sparseEcho) Transmit(r Round) Message {
	if (int(r)+int(n.env.ID()))%n.burst != 0 {
		return nil
	}
	return [2]int{int(n.env.ID()), int(r)}
}

func (n *sparseEcho) Receive(_ Round, rx Reception) {
	n.heard = append(n.heard, rx)
}

// runShardedScenario drives a churned, mobile cluster over a diskMedium
// world ~5 cells wide, so every shard count in the tests produces real
// boundary bands, halo traffic and cross-shard migration. It returns every
// observable: reception logs (with collision flags), final positions,
// liveness, and engine stats.
func runShardedScenario(rounds int, opts ...Option) ([][]Reception, []geo.Point, []bool, Stats) {
	const r2 = 10.0
	e := NewEngine(diskMedium{r2: r2}, append([]Option{WithSeed(7)}, opts...)...)
	var nodes []*sparseEcho
	attach := func(n int) {
		for i := 0; i < n; i++ {
			k := len(nodes)
			pos := geo.Point{X: float64(k%8) * 6.5, Y: float64(k/8) * 6.5}
			e.Attach(pos, roamMover{}, func(env Env) Node {
				node := &sparseEcho{env: env, burst: 2 + k%3}
				nodes = append(nodes, node)
				return node
			})
		}
	}
	attach(40)
	e.Run(rounds / 3)
	e.CrashAt(3, 1)          // past round: applies immediately
	e.Leave(7)               // immediate departure
	e.CrashAt(12, e.Round()) // fires before this round's transmissions
	e.CrashAt(21, e.Round()+2)
	e.Run(rounds / 3)
	attach(10) // mid-run joiners land in whatever shard owns their cell
	e.Crash(0)
	e.Run(rounds - 2*(rounds/3))

	heard := make([][]Reception, len(nodes))
	pos := make([]geo.Point, len(nodes))
	alive := make([]bool, len(nodes))
	for i, n := range nodes {
		heard[i] = n.heard
		pos[i] = e.Position(NodeID(i))
		alive[i] = e.Alive(NodeID(i))
	}
	return heard, pos, alive, e.Stats()
}

// TestRegionShardedEqualsSequential is the engine-level half of the
// sharded determinism contract: for every shard grid — the 1x1 plan that
// aliases the engine's own views included — sequential (the counting sort
// at one chunk), under WithWorkers(0), and under WithWorkers bounds of one
// and three, the sharded engine's receptions, trajectories, liveness and
// stats are byte-identical to the plain single-medium run — under churn
// (mid-run attach, crashes, leaves) and cross-shard mobility.
func TestRegionShardedEqualsSequential(t *testing.T) {
	const rounds = 18
	wantHeard, wantPos, wantAlive, wantStats := runShardedScenario(rounds)
	grids := []struct{ cols, rows int }{{1, 1}, {2, 1}, {2, 2}, {3, 3}, {4, 2}, {5, 1}}
	widths := []struct {
		label string
		opts  []Option
	}{
		{"sequential", nil},
		{"parallel", []Option{WithWorkers(0)}},
		{"workers=1", []Option{WithWorkers(1)}},
		{"workers=3", []Option{WithWorkers(3)}},
	}
	for _, g := range grids {
		for _, w := range widths {
			opts := append([]Option{WithRegionShards(g.cols, g.rows, 10, func() Medium {
				return diskMedium{r2: 10}
			})}, w.opts...)
			heard, pos, alive, stats := runShardedScenario(rounds, opts...)
			if !reflect.DeepEqual(heard, wantHeard) {
				t.Fatalf("%dx%d %s: sharded reception log diverged from sequential", g.cols, g.rows, w.label)
			}
			if !reflect.DeepEqual(pos, wantPos) {
				t.Fatalf("%dx%d %s: sharded trajectories diverged", g.cols, g.rows, w.label)
			}
			if !reflect.DeepEqual(alive, wantAlive) {
				t.Fatalf("%dx%d %s: sharded liveness diverged", g.cols, g.rows, w.label)
			}
			// Everything except the halo accounting must match the
			// single-medium stats exactly.
			gotCore, wantCore := stats, wantStats
			gotCore.HaloTransmissions, wantCore.HaloTransmissions = 0, 0
			if gotCore != wantCore {
				t.Fatalf("%dx%d %s: sharded stats %+v diverged from %+v", g.cols, g.rows, w.label, stats, wantStats)
			}
			if g.cols*g.rows > 1 && stats.HaloTransmissions == 0 {
				t.Fatalf("%dx%d %s: no halo transmissions — the scenario exercised no boundary band", g.cols, g.rows, w.label)
			}
			if g.cols*g.rows == 1 && stats.HaloTransmissions != 0 {
				t.Fatalf("1x1 %s: unexpected halo transmissions %d", w.label, stats.HaloTransmissions)
			}
		}
	}
}

// TestRegionShardsAccessors pins the option plumbing: shard count is
// visible, the factory is called once per shard, and invalid setups panic.
func TestRegionShardsAccessors(t *testing.T) {
	made := 0
	e := NewEngine(nil, WithRegionShards(3, 2, 10, func() Medium {
		made++
		return diskMedium{r2: 10}
	}))
	if n := e.plane.cols * e.plane.rows; n != 6 {
		t.Errorf("engine has %d region shards, want 6", n)
	}
	if made != 6 {
		t.Errorf("factory called %d times, want 6", made)
	}
	if p := NewEngine(perfectMedium{}).plane; p.cols*p.rows != 0 {
		t.Error("single-medium engine reports region shards")
	}
	for name, opt := range map[string]Option{
		"nil factory":    WithRegionShards(2, 2, 10, nil),
		"zero cell size": WithRegionShards(2, 2, 0, func() Medium { return diskMedium{} }),
		"zero cols":      WithRegionShards(0, 2, 10, func() Medium { return diskMedium{} }),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: WithRegionShards did not panic", name)
				}
			}()
			NewEngine(nil, opt)
		}()
	}
}

// TestShardedEmptyWorld guards the degenerate paths: an engine with no
// nodes (and one whose population fully dies) must still step, fire hooks
// with full-length reception slices, and count rounds.
func TestShardedEmptyWorld(t *testing.T) {
	e := NewEngine(nil, WithRegionShards(2, 2, 10, func() Medium { return diskMedium{r2: 10} }))
	hooks := 0
	e.OnRound(func(r Round, txs []Transmission, rxs []Reception) {
		hooks++
		if len(txs) != 0 || len(rxs) != e.NumNodes() {
			t.Errorf("round %d: %d txs, %d rxs for %d nodes", r, len(txs), len(rxs), e.NumNodes())
		}
	})
	e.Run(3)
	var n *silentNode
	e.Attach(geo.Point{X: 1, Y: 1}, nil, func(env Env) Node { n = &silentNode{}; return n })
	e.Run(2)
	e.Crash(0)
	e.Run(2)
	if hooks != 7 {
		t.Errorf("hooks fired %d times, want 7", hooks)
	}
	if len(n.heard) != 2 {
		t.Errorf("node received %d rounds while alive, want 2", len(n.heard))
	}
	if e.Stats().Rounds != 7 {
		t.Errorf("Stats().Rounds = %d, want 7", e.Stats().Rounds)
	}
}
