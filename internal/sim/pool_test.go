package sim

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"time"

	"vinfra/internal/geo"
)

// snapshotShardedEngine builds a region-sharded parallel deployment of
// Snapshotter nodes (counterNode roaming under cramped, as in the snapshot tests)
// over a diskMedium world, with enough workers that the persistent pool
// actually engages even on a single-CPU machine.
func snapshotShardedEngine(n int) (*Engine, []*counterNode) {
	e := NewEngine(nil,
		WithSeed(42),
		WithRegionShards(2, 2, 10, func() Medium { return diskMedium{r2: 10} }),
		WithWorkers(0),
		WithWorkers(3),
	)
	nodes := make([]*counterNode, n)
	for i := 0; i < n; i++ {
		i := i
		e.Attach(geo.Point{X: float64(i%4) * 7, Y: float64(i/4) * 7}, cramped, func(env Env) Node {
			nodes[i] = &counterNode{env: env}
			return nodes[i]
		})
	}
	return e, nodes
}

// runPoolScenario drives a churned, mobile cluster for rounds steps; when
// closeEvery > 0 the engine's worker runtime is torn down (Close) every
// closeEvery rounds, forcing lazy pool rebuilds mid-run. Returns every
// observable so pool lifecycle events can be shown to leave no trace.
func runPoolScenario(rounds, closeEvery int, opts ...Option) ([][]Reception, []geo.Point, []bool, Stats) {
	e := NewEngine(diskMedium{r2: 10}, append([]Option{WithSeed(11)}, opts...)...)
	defer e.Close()
	var nodes []*sparseEcho
	attach := func(n int) {
		for i := 0; i < n; i++ {
			k := len(nodes)
			pos := geo.Point{X: float64(k%7) * 6, Y: float64(k/7) * 6}
			e.Attach(pos, roam, func(env Env) Node {
				node := &sparseEcho{env: env, burst: 2 + k%3}
				nodes = append(nodes, node)
				return node
			})
		}
	}
	attach(30)
	for r := 0; r < rounds; r++ {
		switch r {
		case rounds / 3:
			e.CrashAt(2, e.Round())
			e.Leave(5)
		case rounds / 2:
			attach(6)
			e.Crash(9)
		}
		e.Step()
		if closeEvery > 0 && (r+1)%closeEvery == 0 {
			e.Close()
		}
	}
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

// TestPersistentPoolCloseMidRunEqualsSequential is the lifecycle half of
// the determinism contract for the worker runtime: a sharded parallel run,
// and a run whose pool is torn down and lazily rebuilt every few rounds
// must both be observable-identical to the plain single-medium sequential
// run.
func TestPersistentPoolCloseMidRunEqualsSequential(t *testing.T) {
	const rounds = 18
	wantHeard, wantPos, wantAlive, wantStats := runPoolScenario(rounds, 0)
	shardOpts := func(extra ...Option) []Option {
		return append([]Option{
			WithRegionShards(2, 2, 10, func() Medium { return diskMedium{r2: 10} }),
			WithWorkers(0),
			WithWorkers(4),
		}, extra...)
	}
	cases := []struct {
		name       string
		closeEvery int
		opts       []Option
	}{
		{"pool", 0, shardOpts()},
		{"pool-close-every-2", 2, shardOpts()},
		{"pool-close-every-5", 5, shardOpts()},
		{"parallel-unsharded", 3, []Option{WithWorkers(4)}},
	}
	for _, tc := range cases {
		heard, pos, alive, stats := runPoolScenario(rounds, tc.closeEvery, tc.opts...)
		if !reflect.DeepEqual(heard, wantHeard) {
			t.Fatalf("%s: reception log diverged from sequential", tc.name)
		}
		if !reflect.DeepEqual(pos, wantPos) {
			t.Fatalf("%s: trajectories diverged", tc.name)
		}
		if !reflect.DeepEqual(alive, wantAlive) {
			t.Fatalf("%s: liveness diverged", tc.name)
		}
		gotCore, wantCore := stats, wantStats
		gotCore.HaloTransmissions, wantCore.HaloTransmissions = 0, 0
		if gotCore != wantCore {
			t.Fatalf("%s: stats %+v diverged from %+v", tc.name, stats, wantStats)
		}
	}
}

// TestPersistentPoolSnapshotRestore checks the checkpoint boundary of the
// worker runtime: taking a snapshot while the pool is live tears the pool
// down (a checkpoint carries no goroutines), restoring into a fresh engine
// and continuing is byte-identical to the uninterrupted run, and the
// snapshotted engine itself keeps stepping afterwards on a lazily rebuilt
// pool without diverging.
func TestPersistentPoolSnapshotRestore(t *testing.T) {
	straight, _ := snapshotShardedEngine(8)
	straight.Run(12)
	want := straight.Snapshot().AppendTo(nil)

	a, _ := snapshotShardedEngine(8)
	a.Run(5)
	if a.pool == nil {
		t.Fatal("parallel sharded engine ran 5 rounds without starting its worker pool")
	}
	snap := a.Snapshot()
	if a.pool != nil {
		t.Fatal("Snapshot left the worker pool running across the checkpoint boundary")
	}

	b, _ := snapshotShardedEngine(8)
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	b.Run(7)
	if got := b.Snapshot().AppendTo(nil); !bytes.Equal(got, want) {
		t.Fatal("engine restored from a live-pool snapshot diverges from the uninterrupted run")
	}

	// The source engine is still usable: the pool is rebuilt on demand.
	a.Run(7)
	if a.pool == nil {
		t.Fatal("pool was not rebuilt after the post-snapshot rounds")
	}
	if got := a.Snapshot().AppendTo(nil); !bytes.Equal(got, want) {
		t.Fatal("snapshotted engine diverges when it continues past its own checkpoint")
	}
}

// TestPersistentPoolCloseReleasesWorkers pins the goroutine lifecycle:
// stepping a parallel engine parks helper goroutines, Close releases every
// one of them, the engine remains usable afterwards (lazy rebuild), and
// Close is idempotent.
func TestPersistentPoolCloseReleasesWorkers(t *testing.T) {
	e, _ := snapshotShardedEngine(8)
	e.Run(3)
	if e.pool == nil {
		t.Fatal("parallel sharded engine ran without starting its worker pool")
	}
	helpers := len(e.pool.helpers)
	if helpers < 2 {
		t.Fatalf("pool has %d helpers, want at least 2 (WithWorkers(3))", helpers)
	}
	live := runtime.NumGoroutine()

	e.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > live-helpers {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines linger after Close, want <= %d (helpers not released)",
				runtime.NumGoroutine(), live-helpers)
		}
		time.Sleep(time.Millisecond)
	}

	before := e.Snapshot().AppendTo(nil)
	e.Run(2) // still usable: pool rebuilt lazily
	if e.pool == nil {
		t.Fatal("pool was not rebuilt after Close")
	}
	if bytes.Equal(e.Snapshot().AppendTo(nil), before) {
		t.Fatal("post-Close rounds did not advance the engine")
	}
	e.Close()
	e.Close() // idempotent
}

// panicNode is a countNode whose Transmit panics with value in round at.
type panicNode struct {
	countNode
	at    Round
	value any
}

func (n *panicNode) Transmit(r Round) Message {
	if r == n.at && n.value != nil {
		panic(n.value)
	}
	return benchMsg
}

// TestPersistentPoolPanicReachesCaller: a panic raised inside a fanned-out
// chunk — on a helper goroutine, where no recover above Step could reach it
// — comes out of Step on the caller's goroutine instead, once every chunk is
// in; of several the lowest chunk's value wins, whatever order they finished
// in. The pool is left usable: the next Step runs, and Close returns.
func TestPersistentPoolPanicReachesCaller(t *testing.T) {
	for _, tc := range []struct {
		name   string
		values map[int]any // by NodeID; 40 nodes in 4 chunks of 10
		want   any
	}{
		{"one helper chunk", map[int]any{25: "chunk 2"}, "chunk 2"},
		{"two helper chunks", map[int]any{35: "chunk 3", 12: "chunk 1"}, "chunk 1"},
		{"the caller's chunk and a helper's", map[int]any{17: "chunk 1", 3: "chunk 0"}, "chunk 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(&nullMedium{}, WithWorkers(4))
			nodes := make([]*panicNode, 40)
			for i := range nodes {
				e.Attach(geo.Point{X: float64(i)}, nil, func(env Env) Node {
					nodes[i] = &panicNode{countNode{env: env}, 2, tc.values[i]}
					return nodes[i]
				})
			}
			e.Run(2)
			got := func() (v any) {
				defer func() { v = recover() }()
				e.Step()
				return nil
			}()
			if got != tc.want {
				t.Fatalf("Step panicked with %v on the caller's goroutine, want %v", got, tc.want)
			}
			e.Step()
			for i, n := range nodes {
				if n.received != 3 {
					t.Fatalf("node %d received %d rounds, want 3: two before the panic and the one after", i, n.received)
				}
			}
			e.Close()
		})
	}
}
