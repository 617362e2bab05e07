package faults

import (
	"reflect"
	"testing"

	"vinfra/internal/geo"
	"vinfra/internal/sim"
)

// nullMedium delivers nothing: the engine-layer faults are about crashes
// and positions, not propagation.
type nullMedium struct{ out []sim.Reception }

func (m *nullMedium) Deliver(r sim.Round, _ []sim.Transmission, rxs []sim.NodeInfo) []sim.Reception {
	if cap(m.out) < len(rxs) {
		m.out = make([]sim.Reception, len(rxs))
	}
	out := m.out[:len(rxs)]
	for i := range out {
		out[i] = sim.Reception{}
	}
	return out
}

type idleNode struct{}

func (idleNode) Transmit(sim.Round) sim.Message   { return nil }
func (idleNode) Receive(sim.Round, sim.Reception) {}
func buildIdle(sim.Env) sim.Node                  { return idleNode{} }

// newRig attaches n idle nodes on a horizontal line, one unit apart.
func newRig(n int) *sim.Engine {
	e := sim.NewEngine(&nullMedium{})
	for i := 0; i < n; i++ {
		e.Attach(geo.Point{X: float64(i)}, nil, buildIdle)
	}
	return e
}

func TestWindowActive(t *testing.T) {
	always := Window{}
	if !always.Active(0) || !always.Active(1<<40) {
		t.Error("zero window must always be active")
	}
	w := Window{From: 5, Until: 10}
	for r := sim.Round(0); r < 15; r++ {
		if got, want := w.Active(r), r >= 5 && r < 10; got != want {
			t.Errorf("Active(%d) = %v, want %v", r, got, want)
		}
	}
}

func TestCellJammerDeterministicAndBounded(t *testing.T) {
	j := &CellJammer{
		Bounds:   geo.Rect{Min: geo.Point{}, Max: geo.Point{X: 40, Y: 40}},
		CellSize: 10,
		Cells:    3,
		Seed:     7,
	}
	outside := geo.Point{X: 100, Y: 100}
	jammedRounds := 0
	for r := sim.Round(0); r < 200; r++ {
		for x := 0.0; x <= 40; x += 5 {
			for y := 0.0; y <= 40; y += 5 {
				p := geo.Point{X: x, Y: y}
				first := j.jammed(r, p)
				if first != j.jammed(r, p) {
					t.Fatalf("jammed(%d, %v) not pure", r, p)
				}
				if first {
					jammedRounds++
					if got := j.Filter(r, 1, p, make([]sim.Transmission, 2)); got != nil {
						t.Fatalf("jammed receiver still heard %d messages", len(got))
					}
					if !j.ForceCollision(r, 1, p) {
						t.Fatal("jammed receiver must see a forced collision")
					}
				}
			}
		}
		if j.jammed(r, outside) {
			t.Fatalf("round %d: receiver outside Bounds jammed", r)
		}
	}
	if jammedRounds == 0 {
		t.Fatal("jammer never jammed anything in 200 rounds")
	}
	// A fresh value with the same configuration makes identical choices.
	j2 := &CellJammer{Bounds: j.Bounds, CellSize: 10, Cells: 3, Seed: 7}
	for r := sim.Round(0); r < 50; r++ {
		p := geo.Point{X: 15, Y: 25}
		if j.jammed(r, p) != j2.jammed(r, p) {
			t.Fatalf("round %d: same seed, different verdicts", r)
		}
	}
}

func TestRegionJammerDutyCycle(t *testing.T) {
	j := &RegionJammer{
		Window:  Window{From: 4, Until: 40},
		Targets: []geo.Point{{X: 0, Y: 0}},
		Radius:  2,
		Period:  6,
		Burst:   2,
	}
	in, out := geo.Point{X: 1}, geo.Point{X: 3}
	for r := sim.Round(0); r < 50; r++ {
		want := r >= 4 && r < 40 && (r-4)%6 < 2
		if got := j.jammed(r, in); got != want {
			t.Errorf("round %d: jammed(in) = %v, want %v", r, got, want)
		}
		if j.jammed(r, out) {
			t.Errorf("round %d: receiver outside the footprint jammed", r)
		}
	}
}

func TestRegionJammerRotateIsDeterministicSubset(t *testing.T) {
	targets := []geo.Point{{X: 0}, {X: 10}, {X: 20}, {X: 30}}
	j := &RegionJammer{Targets: targets, Radius: 1, Period: 4, Burst: 4, Rotate: 1, Seed: 3}
	for cycle := 0; cycle < 8; cycle++ {
		r := sim.Round(cycle * 4)
		jammedTargets := 0
		for _, tp := range targets {
			if j.jammed(r, tp) {
				jammedTargets++
			}
		}
		if jammedTargets != 1 {
			t.Fatalf("cycle %d: %d targets jammed, want exactly 1", cycle, jammedTargets)
		}
		// The whole cycle jams the same target.
		for phase := 1; phase < 4; phase++ {
			for _, tp := range targets {
				if j.jammed(r, tp) != j.jammed(r+sim.Round(phase), tp) {
					t.Fatalf("cycle %d: target set changed mid-cycle", cycle)
				}
			}
		}
	}
}

func TestRegionWipeCrashesExactlyTheRegion(t *testing.T) {
	e := newRig(10) // nodes at x = 0..9
	e.AddFault(RegionWipe{Center: geo.Point{X: 2}, Radius: 1.5, At: 3})
	e.Run(3)
	if e.AliveCount() != 10 {
		t.Fatalf("wipe fired early: %d alive before round 3", e.AliveCount())
	}
	e.Run(1)
	for id := 0; id < 10; id++ {
		wantDead := id >= 1 && id <= 3 // |x-2| <= 1.5
		if e.Alive(sim.NodeID(id)) == wantDead {
			t.Errorf("node %d: alive=%v after wipe of [0.5, 3.5]", id, e.Alive(sim.NodeID(id)))
		}
	}
}

func TestCrashBurstProbabilityOneKillsAllEligible(t *testing.T) {
	e := newRig(8)
	e.AddFault(&CrashBurst{
		Window:   Window{From: 2, Until: 3},
		P:        1,
		Seed:     1,
		Eligible: func(id sim.NodeID) bool { return id%2 == 0 },
	})
	e.Run(5)
	for id := 0; id < 8; id++ {
		if got, want := e.Alive(sim.NodeID(id)), id%2 == 1; got != want {
			t.Errorf("node %d: alive=%v, want %v", id, got, want)
		}
	}
}

func TestChurnStormKillsAndRespawns(t *testing.T) {
	run := func() (victims []sim.NodeID, positions []geo.Point, alive int) {
		e := newRig(6)
		storm := &ChurnStorm{
			Window: Window{From: 1, Until: 9},
			Period: 4, // fronts at rounds 1 and 5
			Kills:  2,
			Seed:   9,
		}
		storm.Respawn = func(v sim.NodeID, at geo.Point) {
			victims = append(victims, v)
			positions = append(positions, at)
			e.Attach(geo.Point{X: at.X + 0.25}, nil, buildIdle)
		}
		e.AddFault(storm)
		e.Run(10)
		return victims, positions, e.AliveCount()
	}
	v1, p1, alive1 := run()
	v2, p2, _ := run()
	if len(v1) != 4 {
		t.Fatalf("%d victims, want 2 fronts x 2 kills", len(v1))
	}
	if !reflect.DeepEqual(v1, v2) || !reflect.DeepEqual(p1, p2) {
		t.Fatalf("storm not deterministic: %v vs %v", v1, v2)
	}
	if alive1 != 6 { // 6 start - 4 killed + 4 respawned = 6
		t.Fatalf("alive = %d after kill-and-respawn, want 6", alive1)
	}
	seen := map[sim.NodeID]bool{}
	for i, v := range v1 {
		if int(v) >= 6+i {
			t.Errorf("victim %v out of range", v)
		}
		if seen[v] {
			t.Errorf("victim %v killed twice", v)
		}
		seen[v] = true
	}
}

func TestHerdPullsCohortTowardFocus(t *testing.T) {
	e := newRig(20)
	focus := geo.Point{X: 50, Y: 50}
	e.AddFault(&Herd{Focus: focus, Frac: 0.5, Step: 1, Seed: 4})
	start := make([]geo.Point, 20)
	for id := range start {
		start[id] = e.Position(sim.NodeID(id))
	}
	e.Run(8)
	moved := 0
	for id := 0; id < 20; id++ {
		cur := e.Position(sim.NodeID(id))
		if cur == start[id] {
			continue
		}
		moved++
		gained := start[id].Dist(focus) - cur.Dist(focus)
		if gained < 7.99 || gained > 8.01 { // 8 rounds x Step 1, far from focus
			t.Errorf("node %d gained %.3f toward focus, want ~8", id, gained)
		}
	}
	if moved == 0 || moved == 20 {
		t.Fatalf("herded cohort = %d of 20, want a strict subset", moved)
	}
	// Membership is stable: run more rounds, the same nodes keep moving.
	mid := make([]geo.Point, 20)
	for id := range mid {
		mid[id] = e.Position(sim.NodeID(id))
	}
	e.Run(2)
	for id := 0; id < 20; id++ {
		wasMoving := mid[id] != start[id]
		stillMoving := e.Position(sim.NodeID(id)) != mid[id]
		if wasMoving != stillMoving {
			t.Errorf("node %d: cohort membership flapped", id)
		}
	}
}

func TestFaultsComposeInOrder(t *testing.T) {
	e := newRig(4)
	var order []string
	mk := func(name string) sim.Fault {
		return strikeFunc(func(r sim.Round, _ sim.Control) {
			if r == 0 {
				order = append(order, name)
			}
		})
	}
	e.AddFault(Faults{mk("a"), mk("b"), mk("c")})
	e.Run(1)
	if !reflect.DeepEqual(order, []string{"a", "b", "c"}) {
		t.Fatalf("strike order %v", order)
	}
}

type strikeFunc func(r sim.Round, ctl sim.Control)

func (f strikeFunc) Strike(r sim.Round, ctl sim.Control) { f(r, ctl) }

// beacon transmits every round, so OnRound transmission counts reveal
// exactly which round a crash took effect in.
type beacon struct{}

func (beacon) Transmit(sim.Round) sim.Message   { return "b" }
func (beacon) Receive(sim.Round, sim.Reception) {}

// TestFaultCrashAtNextRoundIsNotEarly pins the Strike/round-counter order:
// a fault that schedules CrashAt(id, r+1) while striking at round r must
// leave the node alive through round r (it still transmits) and dead from
// round r+1 — not crash it immediately because the engine had already
// advanced its round counter.
func TestFaultCrashAtNextRoundIsNotEarly(t *testing.T) {
	e := sim.NewEngine(&nullMedium{})
	id := e.Attach(geo.Point{}, nil, func(sim.Env) sim.Node { return beacon{} })
	e.AddFault(strikeFunc(func(r sim.Round, ctl sim.Control) {
		if r == 1 {
			ctl.CrashAt(id, 2)
		}
	}))
	var txs []int
	e.OnRound(func(_ sim.Round, t []sim.Transmission, _ []sim.Reception) {
		txs = append(txs, len(t))
	})
	e.Run(3)
	if want := []int{1, 1, 0}; !reflect.DeepEqual(txs, want) {
		t.Fatalf("transmissions per round = %v, want %v (CrashAt(r+1) from Strike(r) must not crash early)", txs, want)
	}
}
