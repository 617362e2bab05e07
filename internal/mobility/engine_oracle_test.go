package mobility_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"vinfra/internal/det"
	"vinfra/internal/geo"
	"vinfra/internal/mobility"
	"vinfra/internal/sim"
	"vinfra/internal/wire"
)

// The engine owns every moving node's leg and advances it in its own
// mobility loop, with the steady leg inlined there. These tests hold that
// loop — on the sequential engine, on WithWorkers(2) and on a 2x2
// WithRegionShards plane — to the reference step (mobility.ReferenceMove),
// node by node and bit for bit.

// quiet is a Medium that delivers nothing: what the oracle watches is the
// mobility phase, which runs before propagation.
type quiet struct{ out []sim.Reception }

func (q *quiet) Deliver(_ sim.Round, _ []sim.Transmission, rxs []sim.NodeInfo) []sim.Reception {
	if cap(q.out) < len(rxs) {
		q.out = make([]sim.Reception, len(rxs))
	}
	return q.out[:len(rxs)]
}

// still neither transmits nor draws: every draw from a node's stream is its
// model's.
type still struct{}

func (still) Transmit(sim.Round) sim.Message   { return nil }
func (still) Receive(sim.Round, sim.Reception) {}

var paths = []struct {
	name string
	opts func() []sim.Option
}{
	{"sequential", func() []sim.Option { return nil }},
	{"workers", func() []sim.Option { return []sim.Option{sim.WithWorkers(2)} }},
	{"sharded", func() []sim.Option {
		return []sim.Option{sim.WithWorkers(2), sim.WithRegionShards(2, 2, 20, func() sim.Medium { return &quiet{} })}
	}},
}

// refNode is one node as the reference sees it: position, leg and a stream
// keyed as the engine keys the node's, counting its draws.
type refNode struct {
	at    geo.Point
	leg   mobility.Leg
	rng   *det.Stream
	draws int
}

func (n *refNode) intn(k int) int {
	n.draws++
	return n.rng.Intn(k)
}

func sameBits(a, b geo.Point) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y)
}

// world attaches one still node per start under m.
func world(seed int64, m *mobility.RandomWaypoint, starts []geo.Point, opts []sim.Option) *sim.Engine {
	e := sim.NewEngine(&quiet{}, append([]sim.Option{sim.WithSeed(seed)}, opts...)...)
	for _, p := range starts {
		e.Attach(p, m, func(sim.Env) sim.Node { return still{} })
	}
	return e
}

// compare holds every node of e to its reference after round r: position,
// leg blob and stream position (which, a stream being a counter, is the
// number of draws). The snapshot is taken only when legs is set.
func compare(t *testing.T, what string, r int, e *sim.Engine, refs []refNode, legs bool) {
	t.Helper()
	for i := range refs {
		if got := e.Position(sim.NodeID(i)); !sameBits(got, refs[i].at) {
			t.Fatalf("%s round %d node %d: engine at %v, reference at %v", what, r, i, got, refs[i].at)
		}
	}
	if !legs {
		return
	}
	for i, ns := range e.Snapshot().Nodes {
		if want := refs[i].leg.AppendState(nil); !bytes.Equal(ns.Mover, want) {
			t.Fatalf("%s round %d node %d: engine leg %x, reference %x", what, r, i, ns.Mover, want)
		}
		if ns.RNG != refs[i].rng.State() {
			t.Fatalf("%s round %d node %d: engine stream at %#x, reference at %#x after %d draws", what, r, i, ns.RNG, refs[i].rng.State(), refs[i].draws)
		}
	}
}

// TestRandomWaypointMatchesReferenceBitForBit runs the engine's mobility
// phase and the reference side by side for over a million node-steps on
// each path and requires the same position, leg and number of draws after
// every round, down to the last bit. The configurations cover long legs
// with rare arrivals (the city workloads' 90x90 field at vmax 0.02),
// frequent arrivals and redraws (a field a few steps wide), a
// negative-coordinate field, and a degenerate field of zero size where the
// node stands on its destination every round; halfway through, the engine
// is replaced by a fresh deployment restored from its snapshot. 512 nodes
// are what it takes for WithWorkers(2) to hand a chunk to a helper.
func TestRandomWaypointMatchesReferenceBitForBit(t *testing.T) {
	configs := []struct {
		name  string
		area  geo.Rect
		vmax  float64
		start geo.Point
	}{
		{"city", geo.Rect{Max: geo.Point{X: 90, Y: 90}}, 0.02, geo.Point{X: 45, Y: 45}},
		{"medium", geo.Rect{Max: geo.Point{X: 50, Y: 50}}, 2, geo.Point{X: 25, Y: 25}},
		{"cramped", geo.Rect{Max: geo.Point{X: 4, Y: 4}}, 1, geo.Point{X: 1, Y: 3}},
		{"negative", geo.Rect{Min: geo.Point{X: -30, Y: -70}, Max: geo.Point{X: -10, Y: 5}}, 0.7, geo.Point{X: -20, Y: -20}},
		{"point", geo.Rect{Min: geo.Point{X: 3, Y: 3}, Max: geo.Point{X: 3, Y: 3}}, 0.5, geo.Point{X: 3, Y: 3}},
	}
	const nodes, rounds = 512, 140
	total := 0
	for _, path := range paths {
		for ci, cfg := range configs {
			what := path.name + "/" + cfg.name
			seed := int64(ci + 1)
			m := &mobility.RandomWaypoint{Area: cfg.area, VMax: cfg.vmax}
			starts := make([]geo.Point, nodes)
			refs := make([]refNode, nodes)
			for i := range starts {
				// Spread over a few units about the start, the point field's
				// node on its destination included.
				starts[i] = geo.Point{X: cfg.start.X + float64(i%8)*0.3, Y: cfg.start.Y - float64(i/8%8)*0.3}
				if cfg.name == "point" && i%2 == 0 {
					starts[i] = cfg.start
				}
				refs[i] = refNode{at: starts[i], rng: det.NewStream(seed, int64(i))}
			}
			e := world(seed, m, starts, path.opts())
			for r := 0; r < rounds; r++ {
				if r == rounds/2 {
					snap := e.Snapshot()
					e.Close()
					e = world(seed, m, starts, path.opts())
					if err := e.Restore(snap); err != nil {
						t.Fatal(err)
					}
				}
				e.Step()
				for i := range refs {
					refs[i].at = mobility.ReferenceMove(m, &refs[i].leg, refs[i].at, refs[i].intn)
				}
				compare(t, what, r, e, refs, r%10 == 9 || r == rounds-1)
				total += nodes
			}
			e.Close()
			redraws := 0
			for i := range refs {
				redraws += refs[i].draws - 2 // the first destination is no redraw
			}
			if redraws <= 0 {
				t.Errorf("%s: no node came within vmax of a destination, the redraw path went unexercised", what)
			}
		}
	}
	if total < 1_000_000 {
		t.Fatalf("compared %d node-steps, want at least 10^6", total)
	}
}

// placed returns e after laying each node's position, leg and stream
// position over it through a snapshot, the way a checkpoint would.
func placed(t *testing.T, e *sim.Engine, refs []refNode) *sim.Engine {
	t.Helper()
	snap := e.Snapshot()
	for i := range refs {
		ns := &snap.Nodes[i]
		ns.X, ns.Y = refs[i].at.X, refs[i].at.Y
		ns.Mover = refs[i].leg.AppendState(nil)
		ns.RNG = refs[i].rng.State()
	}
	if err := e.Restore(snap); err != nil {
		t.Fatal(err)
	}
	return e
}

// legBlob is the leg blob of a node heading for dest.
func legBlob(dest geo.Point) []byte {
	b := wire.AppendBool(nil, true)
	b = wire.AppendFloat64(b, dest.X)
	return wire.AppendFloat64(b, dest.Y)
}

// TestRandomWaypointEdgeStepsMatchReference stages, in the engine, the
// legs the random walk above only reaches by luck: a leg of exactly VMax
// (3-4-5: not an arrival, l < VMax is false, but an exact landing,
// l <= VMax), the redraw that follows from standing on the destination, a
// leg one ulp either side of VMax, and a zero and a negative VMax — one
// node starting on its destination, where the unit vector of a zero step
// must stay the zero vector, and one a leg away.
func TestRandomWaypointEdgeStepsMatchReference(t *testing.T) {
	area := geo.Rect{Max: geo.Point{X: 8, Y: 8}}
	for _, path := range paths {
		for _, vmax := range []float64{5, math.Nextafter(5, 6), math.Nextafter(5, 4), 0, -1} {
			what := fmt.Sprintf("%s/vmax %v", path.name, vmax)
			m := &mobility.RandomWaypoint{Area: area, VMax: vmax}
			starts := []geo.Point{{}, {X: 3, Y: 4}, {X: 7, Y: 1}}
			refs := make([]refNode, len(starts))
			for i := range refs {
				refs[i] = refNode{at: starts[i], rng: det.NewStream(9, int64(i))}
				if err := refs[i].leg.RestoreState(legBlob(geo.Point{X: 3, Y: 4})); err != nil {
					t.Fatal(err)
				}
			}
			e := placed(t, world(9, m, starts, path.opts()), refs)
			for r := 0; r < 6; r++ {
				e.Step()
				for i := range refs {
					refs[i].at = mobility.ReferenceMove(m, &refs[i].leg, refs[i].at, refs[i].intn)
				}
				compare(t, what, r, e, refs, true)
			}
			e.Close()
		}
	}
}

// FuzzWaypointMatchesReference fuzzes a node's model — its area, degenerate
// and inverted ones included, and its VMax, zero and negative included —
// its start point, its leg and its stream position (which fixes every draw
// it will make), and holds the engine's mobility phase to the reference for
// a few rounds, bit for bit, on the sequential or the sharded path.
func FuzzWaypointMatchesReference(f *testing.F) {
	f.Add(0.0, 0.0, 90.0, 90.0, 0.02, 45.0, 45.0, false, 0.0, 0.0, uint64(1), uint8(20), false)
	f.Add(0.0, 0.0, 4.0, 4.0, 1.0, 1.0, 3.0, true, 1.0, 3.0, uint64(7), uint8(40), true)
	f.Add(-30.0, -70.0, 20.0, 75.0, 0.7, -20.0, -20.0, false, 0.0, 0.0, uint64(3), uint8(30), false)
	f.Add(3.0, 3.0, 0.0, 0.0, 0.5, 3.0, 3.0, true, 3.0, 3.0, uint64(5), uint8(10), true)
	f.Add(0.0, 0.0, 8.0, 8.0, 5.0, 0.0, 0.0, true, 3.0, 4.0, uint64(11), uint8(6), false)
	f.Add(0.0, 0.0, 8.0, 8.0, 0.0, 0.0, 0.0, true, 3.0, 4.0, uint64(11), uint8(6), true)
	f.Add(5.0, 5.0, -5.0, -5.0, -1.0, 1.0, 1.0, true, 1.0, 1.0, uint64(2), uint8(6), false)
	f.Fuzz(func(t *testing.T, minX, minY, w, h, vmax, x, y float64, hasDest bool, dx, dy float64, state uint64, rounds uint8, sharded bool) {
		m := &mobility.RandomWaypoint{
			Area: geo.Rect{Min: geo.Point{X: minX, Y: minY}, Max: geo.Point{X: minX + w, Y: minY + h}},
			VMax: vmax,
		}
		ref := refNode{at: geo.Point{X: x, Y: y}, rng: det.NewStream()}
		ref.rng.SetState(state)
		if hasDest {
			if err := ref.leg.RestoreState(legBlob(geo.Point{X: dx, Y: dy})); err != nil {
				t.Fatal(err)
			}
		}
		p := paths[0]
		if sharded {
			p = paths[2]
		}
		refs := []refNode{ref}
		e := placed(t, world(1, m, []geo.Point{ref.at}, p.opts()), refs)
		defer e.Close()
		for r := 0; r < int(rounds%64); r++ {
			e.Step()
			refs[0].at = mobility.ReferenceMove(m, &refs[0].leg, refs[0].at, refs[0].intn)
			compare(t, p.name, r, e, refs, true)
		}
	})
}
