package sim

import (
	"bytes"
	"reflect"
	"testing"

	"vinfra/internal/geo"
)

// joinFault attaches perRound nodes at the start of every round before
// until, from inside Strike — the mid-run join path of the churn
// experiments. It is a pure function of the round, so an engine restored
// from a snapshot keeps joining exactly where the original would have.
type joinFault struct {
	e        *Engine
	nodes    *[]*counterNode
	perRound int
	until    Round
}

func (f *joinFault) Strike(r Round, _ Control) {
	if r < f.until {
		attachCounters(f.e, f.nodes, f.perRound)
	}
}

func attachCounters(e *Engine, nodes *[]*counterNode, n int) {
	for i := 0; i < n; i++ {
		x := float64(e.NumNodes())
		e.Attach(geo.Point{X: x}, cramped, func(env Env) Node {
			c := &counterNode{env: env}
			*nodes = append(*nodes, c)
			return c
		})
	}
}

// joinEngine builds an engine with initial nodes attached up front and a
// joinFault registered. With oneSlab set, the engine reserves room for
// 1024 nodes before the first Attach, so it carves a single slab large
// enough for the whole run and never crosses a slab boundary.
func joinEngine(initial int, oneSlab bool) (*Engine, *[]*counterNode) {
	e := NewEngine(perfectMedium{}, WithSeed(42))
	if oneSlab {
		e.Reserve(1024)
	}
	nodes := new([]*counterNode)
	attachCounters(e, nodes, initial)
	e.AddFault(&joinFault{e: e, nodes: nodes, perRound: 3, until: 14})
	return e, nodes
}

// TestAttachAcrossSlabBoundary pins what slabs must not change: nodes
// attached from inside a Fault.Strike while the engine is running, across
// several slab boundaries (the first slab holds 16 nodes, the next ones 16,
// 16, 24, ...), behave exactly like nodes of an engine that holds them all
// in one slab — their Env handles (taken before later slabs existed) keep
// answering, and Snapshot and Restore see the same state.
func TestAttachAcrossSlabBoundary(t *testing.T) {
	const initial, rounds, cut = 10, 20, 8

	slabbed, slabbedNodes := joinEngine(initial, false)
	flat, flatNodes := joinEngine(initial, true)
	slabbed.Run(cut)
	flat.Run(cut)
	if got, want := slabbed.NumNodes(), initial+3*cut; got != want {
		t.Fatalf("attached %d nodes after %d rounds, want %d", got, cut, want)
	}
	if len(flat.slab) != 1024-flat.NumNodes() {
		t.Fatal("the one-slab engine allocated a second slab")
	}
	// Every node — first slab or a later one — reads its own identity and
	// position through the Env it was built with.
	for i, n := range *slabbedNodes {
		if n.env.ID() != NodeID(i) || n.env.Location() != slabbed.Position(NodeID(i)) {
			t.Fatalf("node %d: Env answers ID %d at %v, engine has it at %v",
				i, n.env.ID(), n.env.Location(), slabbed.Position(NodeID(i)))
		}
	}
	snap := slabbed.Snapshot()
	if !bytes.Equal(snap.AppendTo(nil), flat.Snapshot().AppendTo(nil)) {
		t.Fatal("mid-run snapshots differ between the slabbed and the one-slab engine")
	}

	slabbed.Run(rounds - cut)
	flat.Run(rounds - cut)
	want := slabbed.Snapshot().AppendTo(nil)
	if !bytes.Equal(want, flat.Snapshot().AppendTo(nil)) {
		t.Fatal("final snapshots differ between the slabbed and the one-slab engine")
	}
	counts := func(nodes []*counterNode) []int {
		out := make([]int, len(nodes))
		for i, n := range nodes {
			out[i] = n.count
		}
		return out
	}
	if !reflect.DeepEqual(counts(*slabbedNodes), counts(*flatNodes)) {
		t.Fatal("per-node reception counts differ between the slabbed and the one-slab engine")
	}

	// Restore: rebuild the deployment as it stood at the cut (all nodes up
	// front), lay the snapshot over it, and keep running — the joins that
	// follow cross further slab boundaries on one engine and none on the
	// other.
	for _, oneSlab := range []bool{false, true} {
		e, _ := joinEngine(initial+3*cut, oneSlab)
		if err := e.Restore(snap); err != nil {
			t.Fatal(err)
		}
		e.Run(rounds - cut)
		if !bytes.Equal(e.Snapshot().AppendTo(nil), want) {
			t.Fatalf("restored engine (one slab: %v) diverges from the uninterrupted run", oneSlab)
		}
	}

}
