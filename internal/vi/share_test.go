package vi_test

import (
	"os"
	"sync/atomic"
	"testing"

	"vinfra/internal/checkpoint"
	"vinfra/internal/experiments"
	"vinfra/internal/harness"
	"vinfra/internal/spec"
	"vinfra/internal/vi"
	"vinfra/internal/wire"
)

// metroDoc is the metro-vi benchmark's document: a 15x15 grid, three
// bootstrapped replicas a region, a pinger each, no listeners.
func metroDoc(eng spec.Engine) spec.Spec {
	return spec.Spec{
		Version: spec.Version, Seed: 1, VRounds: 1 << 30,
		Grid:    spec.Grid{Cols: 15, Rows: 15},
		Devices: spec.Devices{Replicas: 3, Pingers: true},
		Engine:  eng,
	}
}

func mustBuild(t *testing.T, s spec.Spec) *spec.World {
	t.Helper()
	w, err := spec.Build(s)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return w
}

// stepper is what a spec.World and an experiments.Soak both are.
type stepper interface {
	StepVRound()
	Checkpoint() checkpoint.Checkpoint
}

// TestSharedFoldMatchesUnshared holds the shared fold and the timetable's
// cursor to the emulator that folds every green instance itself and works
// its place in the timetable out from its row's start on every call
// (vi.SetUnshared): the checkpoint digest after every virtual round must be
// the same both ways on the metro document, on examples/regional.json
// (elected leaders, a virtual node now and then without a green instance),
// on every E11 and E13 quick cell (kills, respawns, joins by state
// transfer, resets) and on two worlds on two workers, both more than the two
// grains (512 nodes) the engine needs before it hands a chunk to a helper
// goroutine: the metro document (1 125 nodes) and one virtual node with 600
// replicas, which fold every instance on both goroutines at once — the
// world in which -race reports a slot read and written without its atomic
// pointer.
func TestSharedFoldMatchesUnshared(t *testing.T) {
	defer vi.SetUnshared(false)
	doc, err := os.ReadFile("../../examples/regional.json")
	if err != nil {
		t.Fatal(err)
	}
	regional, err := spec.Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	world := func(s spec.Spec) func() (stepper, func()) {
		return func() (stepper, func()) {
			w := mustBuild(t, s)
			return w, w.Eng.Close
		}
	}
	type bed struct {
		name    string
		vrounds int
		make    func() (stepper, func())
	}
	beds := []bed{
		{"metro", 40, world(metroDoc(spec.Engine{}))},
		{"metro/2 workers", 40, world(metroDoc(spec.Engine{Parallel: true, Workers: 2}))},
		{"one region/2 workers", 12, world(spec.Spec{
			Version: spec.Version, Seed: 1, VRounds: 1 << 20,
			Grid:    spec.Grid{Cols: 1, Rows: 1},
			Radii:   spec.Radii{R1: 800, R2: 800},
			Devices: spec.Devices{Replicas: 600},
			Engine:  spec.Engine{Parallel: true, Workers: 2},
		})},
		{"regional", 150, world(regional)},
	}
	descs, err := harness.Select("E11,E13")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range descs {
		for _, p := range d.Grid(true) {
			beds = append(beds, bed{d.ID + "/" + p.Label, p.Int("vrounds"), func() (stepper, func()) {
				so, err := experiments.NewSoak(d.ID, &harness.Cell{Params: p, Seed: 1}, 0)
				if err != nil {
					t.Fatal(err)
				}
				w := so.(interface{ World() *spec.World }).World()
				return so, w.Eng.Close
			}})
		}
	}
	for _, b := range beds {
		digests := func(off bool) []uint64 {
			vi.SetUnshared(off)
			defer vi.SetUnshared(false)
			s, done := b.make()
			defer done()
			var ds []uint64
			for vr := 0; vr < b.vrounds; vr++ {
				s.StepVRound()
				ds = append(ds, uint64(wire.DigestOf(s.Checkpoint().Encode())))
			}
			return ds
		}
		want, got := digests(true), digests(false)
		for vr := range want {
			if got[vr] != want[vr] {
				t.Fatalf("%s: vround %d: digest %x shared, %x unshared", b.name, vr+1, got[vr], want[vr])
			}
		}
	}
}

// TestFoldOncePerGreenInstance is the counted gate on the shared fold: on
// the metro document, which is green throughout, a counting program sees
// exactly one OnRound call per green instance per virtual node — the three
// replicas of a region fold it once between them (unshared, it sees three).
// A world restored from a checkpoint taken mid-run, whose replicas hold
// floor states of their own, equal in bytes, shares from its first fold on,
// and stays byte-equal to the run that never stopped: no fold is in a
// snapshot.
func TestFoldOncePerGreenInstance(t *testing.T) {
	const vrounds, cut = 30, 13
	// greens returns each virtual node's green instances so far.
	greens := func(w *spec.World) []int {
		n := make([]int, len(w.Locs))
		s := w.Mon.Snapshot()
		for i, v := range s.VNodes {
			n[v] = len(s.Greens[i])
		}
		return n
	}
	// step runs the world to virtual round to, requiring every virtual
	// node to go green in every virtual round and its program to be
	// stepped perFold times for it, and returns the digest after each.
	step := func(w *spec.World, counts []atomic.Int64, to, perFold int) []uint64 {
		t.Helper()
		var ds []uint64
		for w.VRound() < to {
			g0 := greens(w)
			c0 := make([]int64, len(counts))
			for v := range counts {
				c0[v] = counts[v].Load()
			}
			w.StepVRound()
			g1 := greens(w)
			for v := range counts {
				if g1[v]-g0[v] != 1 {
					t.Fatalf("vround %d: virtual node %d went green %d times, want 1", w.VRound(), v, g1[v]-g0[v])
				}
				if n := counts[v].Load() - c0[v]; n != int64(perFold) {
					t.Fatalf("vround %d: virtual node %d's program stepped %d times for its green instance, want %d", w.VRound(), v, n, perFold)
				}
			}
			ds = append(ds, uint64(wire.DigestOf(w.Checkpoint().Encode())))
		}
		return ds
	}
	counted := func() (*spec.World, []atomic.Int64) {
		w := mustBuild(t, metroDoc(spec.Engine{}))
		return w, vi.CountOnRound(w.Dep)
	}

	w, counts := counted()
	want := step(w, counts, vrounds, 1)
	half, halfCounts := counted()
	step(half, halfCounts, cut, 1)
	cp, err := checkpoint.Decode(half.Checkpoint().Encode())
	if err != nil {
		t.Fatal(err)
	}
	restored, restoredCounts := counted()
	if err := restored.Restore(cp); err != nil {
		t.Fatal(err)
	}
	for i, d := range step(restored, restoredCounts, vrounds, 1) {
		if d != want[cut+i] {
			t.Fatalf("restored at vround %d: vround %d digest %x, uninterrupted %x", cut, cut+i+1, d, want[cut+i])
		}
	}

	// Unshared, every replica folds for itself.
	vi.SetUnshared(true)
	defer vi.SetUnshared(false)
	w, counts = counted()
	step(w, counts, 3, 3)
}
