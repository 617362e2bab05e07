package sim_test

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"vinfra/internal/experiments"
	"vinfra/internal/harness"
	"vinfra/internal/sim"
	"vinfra/internal/spec"
)

// stormSoak is the churn-storm workload's world: E13 storm/high on a cols x
// cols grid — three replicas and a pinger a region, two replicas killed and
// respawned every virtual round — on the parallel engine, which is how the
// soaks always run.
func stormSoak(cols, vrounds int) experiments.Soak {
	so, err := experiments.NewSoak("E13", &harness.Cell{Seed: 1, Params: harness.Params{
		Label: "storm/high",
		Ints:  map[string]int{"cols": cols, "rows": cols, "vrounds": vrounds},
		Strs:  map[string]string{"kind": "storm", "intensity": "high"},
	}}, 0)
	if err != nil {
		panic(err)
	}
	return so
}

// TestParallelSmallWorldRunsInline: below the grain WithParallel is the
// sequential path. The 7x7 storm world — 196 devices alive, a dozen of them
// awake in most radio rounds — never has a second chunk's worth of work in
// any phase, so in 300 virtual rounds nothing is handed to a helper and the
// worker runtime is never started.
func TestParallelSmallWorldRunsInline(t *testing.T) {
	defer sim.SetGrain(sim.ProductionGrain)()
	so := stormSoak(7, 300)
	for vr := 0; vr < 300; vr++ {
		so.StepVRound()
	}
	eng := engineOf(so)
	if c := eng.Counts(); c.Handoffs != 0 || c.Pooled {
		t.Fatalf("after 300 virtual rounds of the storm world: %d hand-offs, worker runtime running = %v; want none and never started", c.Handoffs, c.Pooled)
	}
	if alive, attached := eng.AliveCount(), eng.NumNodes(); alive != 196 || attached < 700 {
		t.Fatalf("%d alive of %d attached: not the storm world", alive, attached)
	}
}

// TestChurningRoundCostsWhatIsAlive is the engine layer's pin for "a window,
// not a log": the storm world has 196 devices alive at virtual round 300 and
// at virtual round 3 000, some 800 attached by the first and 6 000 by the
// second, and the work the engine counts for a stretch of virtual rounds is
// the same at both — what a fault's walk visits, the chunks handed to
// helpers, the entries rouse looks at, the room the per-round buffers take.
//
// Two things still follow the nodes ever attached, and are stated rather than
// hidden. rouse reads one bitmap word per 64 NodeIDs each time it relists the
// awake list (Counts.RouseWords: ninety-odd words a relist at 6 000 attached,
// against the dozen entries of the list itself), next to the NodeID-indexed
// tables — 45 B a node in info, nodes and next. And the collector walks the
// dead nodes' Emulators: the checkpoint format keeps them (NodeSnapshot.State
// of a dead node is in every snapshot, and bench/expect.json pins those
// bytes), so the heap a GC cycle marks grows with the run.
func TestChurningRoundCostsWhatIsAlive(t *testing.T) {
	if testing.Short() {
		t.Skip("3 100 virtual rounds of the 7x7 storm world")
	}
	defer sim.SetGrain(sim.ProductionGrain)()
	const window = 100 // virtual rounds measured at each point: which replicas are mid-join differs from one to the next
	so := stormSoak(7, 3000+window)
	eng := engineOf(so)
	type cost struct {
		visited, attached        int // at the window's start: a fault's AliveIDs walk, and NumNodes
		handoffs, entries, words int // over the window
		scratch, grown           int // per-round buffer bytes at the window's end, and growth over it
	}
	measure := func() cost {
		before := eng.Counts()
		c := cost{visited: len(eng.AliveIDs(nil)), attached: eng.NumNodes()}
		for i := 0; i < window; i++ {
			so.StepVRound()
		}
		after := eng.Counts()
		c.handoffs = after.Handoffs - before.Handoffs
		c.entries = after.RouseEntries - before.RouseEntries
		c.words = after.RouseWords - before.RouseWords
		c.scratch, c.grown = after.ScratchBytes, after.ScratchBytes-before.ScratchBytes
		return c
	}
	for so.VRound() < 300 {
		so.StepVRound()
	}
	early := measure()
	for so.VRound() < 3000 {
		so.StepVRound()
	}
	late := measure()
	t.Logf("virtual rounds 300–%d: %+v", 300+window, early)
	t.Logf("virtual rounds 3000–%d: %+v", 3000+window, late)

	if early.attached > 1000 || late.attached < 5000 {
		t.Fatalf("%d and %d nodes attached at the two points; want some 800 and 6 000", early.attached, late.attached)
	}
	if early.visited != 196 || late.visited != 196 {
		t.Errorf("a fault's walk visits %d and %d nodes; want the 196 alive at both", early.visited, late.visited)
	}
	if early.handoffs != 0 || late.handoffs != 0 {
		t.Errorf("%d and %d hand-offs; want none at either point", early.handoffs, late.handoffs)
	}
	if early.grown != 0 || late.grown != 0 || early.scratch != late.scratch {
		t.Errorf("per-round buffers: %d B (+%d over the window) and %d B (+%d); want the same room, and none added", early.scratch, early.grown, late.scratch, late.grown)
	}
	// The same 196 devices on the same schedule: equal but for who happens to
	// be mid-join, which a hundred virtual rounds average out (measured: 97 196 and 97 205).
	if d := late.entries - early.entries; d > early.entries/100 || -d > early.entries/100 {
		t.Errorf("rouse looked at %d list entries and filed nodes in the early window and %d in the late one; want them within 1%%", early.entries, late.entries)
	}
	// The stated term: words per relist follow attached/64.
	if late.words < 4*early.words {
		t.Errorf("rouse read %d and %d bitmap words: the term that follows the nodes ever attached is gone — say so here and in ROADMAP item 2", early.words, late.words)
	}
}

// TestParallelHelpersEqualInline runs the worlds the vi, spec and experiments
// packages test under WithParallel — a few dozen devices, which at the
// production grain run every phase on Step's goroutine, as those packages'
// own tests now do — with the grain at one node, so every phase of every
// round is chunked across helper goroutines (and watched by the race
// detector), and holds each to its inline run: the same checkpoint bytes
// after every virtual round. The hostile grid's faults walk AliveIDs; the
// storm cell attaches from inside a Strike.
func TestParallelHelpersEqualInline(t *testing.T) {
	workers := spec.Engine{Workers: 4}
	for name, build := range map[string]func() stepper{
		"hostile":   func() stepper { return mustBuild(hostile(workers)) },
		"churn":     func() stepper { return newChurnWorld(workers) },
		"E13-storm": e13("storm", 0),
		"E13-wipe":  e13("wipe", 0),
		"E13-burst": e13("burst", 0),
	} {
		t.Run(name, func(t *testing.T) {
			restore := sim.SetGrain(1)
			defer restore()
			helped, inline := build(), build()
			for vr := 1; vr <= 12; vr++ {
				sim.SetGrain(1)
				helped.StepVRound()
				sim.SetGrain(sim.ProductionGrain)
				inline.StepVRound()
				if !bytes.Equal(helped.Checkpoint().Encode(), inline.Checkpoint().Encode()) {
					t.Fatalf("after virtual round %d the checkpoint of the run chunked across helpers differs from the inline run's", vr)
				}
			}
			// The soaks run WithParallel unbounded: GOMAXPROCS chunks, which on
			// one processor is one.
			if c := engineOf(helped).Counts(); c.Handoffs == 0 && (runtime.GOMAXPROCS(0) > 1 || !strings.HasPrefix(name, "E13")) {
				t.Fatal("the run at a grain of one never handed a chunk to a helper")
			}
			if c := engineOf(inline).Counts(); c.Handoffs != 0 {
				t.Fatalf("the run at the production grain handed %d chunks to helpers", c.Handoffs)
			}
		})
	}
}
