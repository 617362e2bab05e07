package vi_test

import (
	"fmt"
	"os"
	"sync/atomic"
	"testing"

	"vinfra/internal/cd"
	"vinfra/internal/checkpoint"
	"vinfra/internal/experiments"
	"vinfra/internal/geo"
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

// jamDoc is the jammed bed: a 5x5 grid with fixed leaders, three replicas
// and a pinger a region, and one region jammer at its defaults — every
// region, always on — so no instance goes green and every virtual node
// stalls from its first virtual round on.
func jamDoc() spec.Spec {
	return spec.Spec{
		Version: spec.Version, Seed: 1, VRounds: 1 << 20,
		Grid:    spec.Grid{Cols: 5, Rows: 5},
		Devices: spec.Devices{Replicas: 3, Pingers: true},
		Leader:  "fixed",
		Faults:  []spec.Fault{{Kind: spec.KindRegionJammer}},
	}
}

// soakWorld is the world a soak steps.
func soakWorld(so experiments.Soak) *spec.World {
	return so.(interface{ World() *spec.World }).World()
}

// jamCell returns E13's jam cell of the given shape, intensity and length,
// seed 1.
func jamCell(t *testing.T, n int, intensity string, vrounds int) experiments.Soak {
	t.Helper()
	p := harness.Params{
		Label: fmt.Sprintf("jam/%s/%dx%d", intensity, n, n),
		Ints:  map[string]int{"cols": n, "rows": n, "vrounds": vrounds},
		Strs:  map[string]string{"kind": "jam", "intensity": intensity},
	}
	so, err := experiments.NewSoak("E13", &harness.Cell{Params: p, Seed: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return so
}

// TestSharedFoldMatchesUnshared holds the emulator's caches — the step a
// virtual node's replicas share, the estimate's reuse, whose check is what
// lets a fold that ends a stall resume from it, and the timetable's cursor —
// to the emulator that steps every position itself, refolds from the floor
// on every call and works its place in the timetable out from its row's
// start (vi.SetNoCache): the checkpoint digest after every virtual round
// must be the same both ways on the metro document, on
// examples/regional.json (elected leaders, a virtual node now and then
// without a green instance), on every E11 and E13 quick cell (kills,
// respawns, joins by state transfer, resets), on the jammed bed (one
// stall, as long as the run) and E13's jam cells (short stalls, each ended
// by a fold that resumes from the estimate), and on two worlds on two
// workers, both more than the two grains (512 nodes) the engine needs
// before it hands a chunk to a helper goroutine: the metro document (1 125
// nodes) and one virtual node with 600 replicas, which step every instance
// on both goroutines at once — the world in which -race reports a memo
// record written by two replicas in one radio round.
//
// Under cd.AC a region's replicas agree on which instances are good, so no
// world above ever makes the estimate's exact check fail. The ◇AC bed does:
// a 3x3 testbed, fixed leaders and a pinger a region over counterProgram,
// whose detector is never accurate and reports a false collision at one
// reception in a hundred (cd.EventuallyAC), so a region's replicas disagree
// on which instances they included, and a history's chain bypasses a
// position a replica estimated. Its digest is of the engine's snapshot,
// every node's state.
func TestSharedFoldMatchesUnshared(t *testing.T) {
	defer vi.SetNoCache(false)
	doc, err := os.ReadFile("../../examples/regional.json")
	if err != nil {
		t.Fatal(err)
	}
	regional, err := spec.Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	// A bed's make returns a func that steps it a virtual round and returns
	// its digest, and one that closes it.
	type bed struct {
		name    string
		vrounds int
		make    func() (func() uint64, func())
	}
	// digests steps s and digests its checkpoint.
	digests := func(s stepper) func() uint64 {
		return func() uint64 {
			s.StepVRound()
			return uint64(wire.DigestOf(s.Checkpoint().Encode()))
		}
	}
	world := func(s spec.Spec) func() (func() uint64, func()) {
		return func() (func() uint64, func()) {
			w := mustBuild(t, s)
			return digests(w), w.Eng.Close
		}
	}
	beds := []bed{
		{"eventually_ac", 60, func() (func() uint64, func()) {
			locs := geo.Grid{Spacing: 6, Cols: 3, Rows: 3}.Locations()
			tb := newTestbed(t, testbedOpts{locs: locs, replicasPer: 3, leaders: true,
				detector: cd.EventuallyAC{Racc: cd.Never, FalsePositiveRate: 0.01}})
			for v, loc := range locs {
				tb.addClient(geo.Point{X: loc.X + 1.2, Y: loc.Y - 1}, &benchPinger{v: v})
			}
			return func() uint64 {
				tb.runVRounds(1)
				return uint64(wire.DigestOf(tb.eng.Snapshot().AppendTo(nil)))
			}, tb.eng.Close
		}},
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
		{"jammed", 250, world(jamDoc())},
	}
	soak := func(so experiments.Soak) (func() uint64, func()) { return digests(so), soakWorld(so).Eng.Close }
	for _, n := range []int{3, 5} {
		for _, in := range []string{"low", "high"} {
			beds = append(beds, bed{fmt.Sprintf("E13/jam/%s/%dx%d", in, n, n), 16, func() (func() uint64, func()) {
				return soak(jamCell(t, n, in, 16))
			}})
		}
	}
	descs, err := harness.Select("E11,E13")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range descs {
		for _, p := range d.Grid(true) {
			beds = append(beds, bed{d.ID + "/" + p.Label, p.Int("vrounds"), func() (func() uint64, func()) {
				so, err := experiments.NewSoak(d.ID, &harness.Cell{Params: p, Seed: 1}, 0)
				if err != nil {
					t.Fatal(err)
				}
				return soak(so)
			}})
		}
	}
	for _, b := range beds {
		run := func(off bool) []uint64 {
			vi.SetNoCache(off)
			defer vi.SetNoCache(false)
			step, done := b.make()
			defer done()
			var ds []uint64
			for vr := 0; vr < b.vrounds; vr++ {
				ds = append(ds, step())
			}
			return ds
		}
		want, got := run(true), run(false)
		for vr := range want {
			if got[vr] != want[vr] {
				t.Fatalf("%s: vround %d: digest %x cached, %x uncached", b.name, vr+1, got[vr], want[vr])
			}
		}
	}
}

// TestFoldOncePerGreenInstance is the counted gate on the shared fold: on
// the metro document, which is green throughout, a counting program sees
// exactly one OnRound call per green instance per virtual node — the three
// replicas of a region fold it once between them (uncached, it sees three).
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

	// Uncached, every replica folds for itself.
	vi.SetNoCache(true)
	defer vi.SetNoCache(false)
	w, counts = counted()
	step(w, counts, 3, 3)
}

// TestStepOncePerPosition is the counted gate on the one step: on E13's jam
// cells (seed 1), whose virtual nodes stall and recover, a counting program
// sees exactly one OnRound call per virtual node per virtual round — each
// position of a virtual node's history is stepped once between its
// replicas, whether they estimate it in a stall, fold it, or both. Uncached
// (vi.SetNoCache) every replica steps every position itself at least once,
// and a stalled one again from the floor on every estimate. The 12x12 cell
// on two workers (576 nodes, past the two grains the engine needs before it
// hands a chunk to a helper goroutine) has the estimate's steps published
// from both goroutines, which -race watches.
func TestStepOncePerPosition(t *testing.T) {
	defer vi.SetNoCache(false)
	type cell struct {
		n, vrounds, workers int
		intensity           string
	}
	cells := []cell{{3, 8, 0, "low"}, {3, 8, 0, "high"}, {5, 16, 0, "low"}, {5, 16, 0, "high"}, {12, 16, 2, "high"}}
	for _, c := range cells {
		for _, off := range []bool{false, true} {
			vi.SetNoCache(off)
			so := jamCell(t, c.n, c.intensity, c.vrounds)
			var s stepper = so
			w := soakWorld(so)
			if c.workers > 0 {
				// The jam cell is a plain document (experiments'
				// TestJamCellIsASpecDocument): the same one on a pool.
				doc := w.Spec
				doc.Engine.Workers = c.workers
				w.Eng.Close()
				w = mustBuild(t, doc)
				s = w
			}
			counts := vi.CountOnRound(w.Dep)
			for vr := 0; vr < c.vrounds; vr++ {
				s.StepVRound()
			}
			w.Eng.Close()
			vi.SetNoCache(false)
			var calls int64
			for v := range counts {
				calls += counts[v].Load()
			}
			vnodes := int64(len(w.Locs))
			name := fmt.Sprintf("jam/%s/%dx%d, %d vrounds", c.intensity, c.n, c.n, c.vrounds)
			t.Logf("%s (uncached %v): %d OnRound calls", name, off, calls)
			switch want := vnodes * int64(c.vrounds); {
			case !off && calls != want:
				t.Errorf("%s: %d OnRound calls, want %d (one per virtual node and virtual round)", name, calls, want)
			case off && calls < 3*want:
				t.Errorf("%s uncached: %d OnRound calls, want at least %d (one per replica and virtual round)", name, calls, 3*want)
			}
		}
	}
}

// TestOutgoingOncePerVNode is the counted gate on the shared broadcast: on
// the metro document a counting program sees exactly one Outgoing call per
// virtual node and virtual round — 225, not one per replica (675) — also in
// a world restored from a checkpoint taken mid-run, whose replicas hold
// floor states of their own, equal in bytes. Uncached (vi.SetNoCache), every
// replica asks for itself.
func TestOutgoingOncePerVNode(t *testing.T) {
	defer vi.SetNoCache(false)
	const vrounds, cut = 12, 5
	// step runs w to virtual round to, requiring perVRound Outgoing calls in
	// each virtual round.
	step := func(w *spec.World, counts []atomic.Int64, to, perVRound int) {
		t.Helper()
		var last int64
		for w.VRound() < to {
			w.StepVRound()
			var calls int64
			for v := range counts {
				calls += counts[v].Load()
			}
			if n := calls - last; n != int64(perVRound) {
				t.Fatalf("vround %d: %d Outgoing calls, want %d", w.VRound(), n, perVRound)
			}
			last = calls
		}
	}
	counted := func() (*spec.World, []atomic.Int64) {
		w := mustBuild(t, metroDoc(spec.Engine{}))
		return w, vi.CountOutgoing(w.Dep)
	}
	w, counts := counted()
	defer w.Eng.Close()
	vnodes := len(w.Locs)
	replicas := vnodes * w.Spec.Devices.Replicas
	step(w, counts, cut, vnodes)
	cp, err := checkpoint.Decode(w.Checkpoint().Encode())
	if err != nil {
		t.Fatal(err)
	}
	restored, restoredCounts := counted()
	defer restored.Eng.Close()
	if err := restored.Restore(cp); err != nil {
		t.Fatal(err)
	}
	step(restored, restoredCounts, vrounds, vnodes)

	vi.SetNoCache(true)
	uncached, uncachedCounts := counted()
	defer uncached.Eng.Close()
	step(uncached, uncachedCounts, 3, replicas)
}

// TestMetroMonitorLocksOncePerVNode is the counted gate on Monitor.Observe's
// lock-free path: on the metro document, after 200 warm-up virtual rounds,
// each of the 225 virtual nodes' three replicas reports the virtual round's
// green instance, and only the first report of each takes the monitor's
// mutex — 225 a virtual round, where every report took it (675). The
// accounting is the same: every virtual node green in every virtual round.
func TestMetroMonitorLocksOncePerVNode(t *testing.T) {
	const warm, vrounds = 200, 10
	w := mustBuild(t, metroDoc(spec.Engine{}))
	for vr := 0; vr < warm; vr++ {
		w.StepVRound()
	}
	vi.CountMonitorLocks(true)
	defer vi.CountMonitorLocks(false)
	before := vi.MonitorLocks()
	for vr := 0; vr < vrounds; vr++ {
		w.StepVRound()
	}
	if n := vi.MonitorLocks() - before; n != int64(vrounds*len(w.Locs)) {
		t.Errorf("%d reports took the monitor's mutex in %d virtual rounds, want %d: one per virtual node and instance",
			n, vrounds, vrounds*len(w.Locs))
	}
	if sum := w.Mon.SummaryThrough(len(w.Locs), w.VRound()); sum.Unavailable != 0 {
		t.Errorf("%d unavailable instances: the metro world must be green throughout", sum.Unavailable)
	}
}
