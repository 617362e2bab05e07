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
// mobility loop, with the steady leg inlined there and, on amd64, repeated
// two nodes at a time by a packed kernel. These tests hold that
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

// besideSteady lays each node of refs into a pair with a steady partner
// under m — partner first for every other node, so the nodes take both
// lanes of the engine's packed kernel — and returns the interleaved refs:
// [r0, s, s, r1, r2, s, …]. A partner heads for a destination so far off
// that no run here brings it within VMax, and draws from a stream of its
// own; under a VMax no distance exceeds (+Inf, NaN) it is no longer steady,
// and is simply one more node the reference holds the engine to.
func besideSteady(m *mobility.RandomWaypoint, refs []refNode) []refNode {
	out := make([]refNode, 0, 2*len(refs))
	for i, ref := range refs {
		far := 1000 + 256*math.Abs(m.VMax)
		partner := refNode{at: geo.Point{X: float64(i), Y: -float64(i)}, rng: det.NewStream(77, int64(i))}
		if err := partner.leg.RestoreState(legBlob(geo.Point{X: float64(i) + far, Y: far / 2})); err != nil {
			panic(err)
		}
		if i%2 == 0 {
			out = append(out, ref, partner)
		} else {
			out = append(out, partner, ref)
		}
	}
	return out
}

// startsOf returns where refs stand.
func startsOf(refs []refNode) []geo.Point {
	at := make([]geo.Point, len(refs))
	for i := range refs {
		at[i] = refs[i].at
	}
	return at
}

// step runs e and the reference one round and holds them together.
func step(t *testing.T, what string, r int, e *sim.Engine, m *mobility.RandomWaypoint, refs []refNode) {
	t.Helper()
	e.Step()
	for i := range refs {
		refs[i].at = mobility.ReferenceMove(m, &refs[i].leg, refs[i].at, refs[i].intn)
	}
	compare(t, what, r, e, refs, true)
}

// TestRandomWaypointEdgeStepsMatchReference stages, in the engine, the
// legs the random walk above only reaches by luck: a leg of exactly VMax
// (3-4-5: not an arrival, l < VMax is false, but an exact landing,
// l <= VMax), the redraw that follows from standing on the destination, a
// leg one ulp either side of VMax, and a zero and a negative VMax — one
// node starting on its destination, where the unit vector of a zero step
// must stay the zero vector, and one a leg away. Each edge leg shares a
// pair with a steady partner, so the packed kernel sees it beside a pair
// it would take.
func TestRandomWaypointEdgeStepsMatchReference(t *testing.T) {
	area := geo.Rect{Max: geo.Point{X: 8, Y: 8}}
	for _, path := range paths {
		for _, vmax := range []float64{5, math.Nextafter(5, 6), math.Nextafter(5, 4), 0, -1} {
			what := fmt.Sprintf("%s/vmax %v", path.name, vmax)
			m := &mobility.RandomWaypoint{Area: area, VMax: vmax}
			edges := []geo.Point{{}, {X: 3, Y: 4}, {X: 7, Y: 1}}
			refs := make([]refNode, len(edges))
			for i := range refs {
				refs[i] = refNode{at: edges[i], rng: det.NewStream(9, int64(i))}
				if err := refs[i].leg.RestoreState(legBlob(geo.Point{X: 3, Y: 4})); err != nil {
					t.Fatal(err)
				}
			}
			refs = besideSteady(m, refs)
			e := placed(t, world(9, m, startsOf(refs), path.opts()), refs)
			for r := 0; r < 6; r++ {
				step(t, what, r, e, m, refs)
			}
			e.Close()
		}
	}
}

// fuzzed is one fuzzed device: its start and its leg.
type fuzzed struct {
	x, y    float64
	hasDest bool
	dx, dy  float64
}

// FuzzWaypointMatchesReference fuzzes a model — its area, degenerate and
// inverted ones included, and its VMax, zero and negative included — and
// three devices roaming under it, each with a start point and a leg of its
// own, and one stream position (device i's stream starts i words on, which
// fixes every draw they will make). Each device shares a pair with a steady
// partner (besideSteady), the first and the last in the kernel's first lane
// and the middle one in its second, and the engine's mobility phase is held
// to the reference for a few rounds, bit for bit, on the sequential or the
// sharded path.
func FuzzWaypointMatchesReference(f *testing.F) {
	add := func(minX, minY, w, h, vmax float64, devs [3]fuzzed, state uint64, rounds uint8, sharded bool) {
		a, b, c := devs[0], devs[1], devs[2]
		f.Add(minX, minY, w, h, vmax,
			a.x, a.y, a.hasDest, a.dx, a.dy,
			b.x, b.y, b.hasDest, b.dx, b.dy,
			c.x, c.y, c.hasDest, c.dx, c.dy,
			state, rounds, sharded)
	}
	steady := fuzzed{x: 1, y: 1, hasDest: true, dx: 70, dy: 50}
	add(0, 0, 90, 90, 0.02, [3]fuzzed{{x: 45, y: 45}, steady, {x: 10, y: 80}}, 1, 20, false)
	add(0, 0, 4, 4, 1, [3]fuzzed{{x: 1, y: 3, hasDest: true, dx: 1, dy: 3}, steady, {x: 2, y: 2, hasDest: true, dx: 0, dy: 2.5}}, 7, 40, true)
	add(-30, -70, 20, 75, 0.7, [3]fuzzed{{x: -20, y: -20}, steady, steady}, 3, 30, false)
	add(3, 3, 0, 0, 0.5, [3]fuzzed{{x: 3, y: 3, hasDest: true, dx: 3, dy: 3}, steady, {x: 3, y: 3}}, 5, 10, true)
	add(0, 0, 8, 8, 5, [3]fuzzed{{hasDest: true, dx: 3, dy: 4}, {x: 3, y: 4, hasDest: true, dx: 3, dy: 4}, steady}, 11, 6, false)
	add(0, 0, 8, 8, 0, [3]fuzzed{{hasDest: true, dx: 3, dy: 4}, steady, {x: 3, y: 4, hasDest: true, dx: 3, dy: 4}}, 11, 6, true)
	add(5, 5, -5, -5, -1, [3]fuzzed{{x: 1, y: 1, hasDest: true, dx: 1, dy: 1}, steady, steady}, 2, 6, false)
	// A NaN start beside a steady partner: MAXPD and MINPD return an
	// operand where Dist's integer order keeps the NaN, and the reference
	// puts this device at (NaN, NaN), not at (NaN, 10.01).
	add(0, 0, 90, 90, 0.02, [3]fuzzed{{x: math.NaN(), y: 10, hasDest: true, dx: 3, dy: 4}, {x: 10, y: math.NaN(), hasDest: true, dx: 3, dy: 4}, steady}, 1, 4, false)
	add(0, 0, 90, 90, 0.02, [3]fuzzed{steady, {x: math.NaN(), y: 10, hasDest: true, dx: 3, dy: 4}, {x: math.Inf(1), y: 10, hasDest: true, dx: 3, dy: 4}}, 1, 4, true)
	f.Fuzz(func(t *testing.T, minX, minY, w, h, vmax float64,
		x0, y0 float64, has0 bool, dx0, dy0 float64,
		x1, y1 float64, has1 bool, dx1, dy1 float64,
		x2, y2 float64, has2 bool, dx2, dy2 float64,
		state uint64, rounds uint8, sharded bool) {
		m := &mobility.RandomWaypoint{
			Area: geo.Rect{Min: geo.Point{X: minX, Y: minY}, Max: geo.Point{X: minX + w, Y: minY + h}},
			VMax: vmax,
		}
		devs := []fuzzed{{x0, y0, has0, dx0, dy0}, {x1, y1, has1, dx1, dy1}, {x2, y2, has2, dx2, dy2}}
		refs := make([]refNode, len(devs))
		for i, d := range devs {
			refs[i] = refNode{at: geo.Point{X: d.x, Y: d.y}, rng: det.NewStream()}
			refs[i].rng.SetState(state + uint64(i))
			if d.hasDest {
				if err := refs[i].leg.RestoreState(legBlob(geo.Point{X: d.dx, Y: d.dy})); err != nil {
					t.Fatal(err)
				}
			}
		}
		refs = besideSteady(m, refs)
		p := paths[0]
		if sharded {
			p = paths[2]
		}
		e := placed(t, world(1, m, startsOf(refs), p.opts()), refs)
		defer e.Close()
		for r := 0; r < int(rounds%64); r++ {
			step(t, p.name, r, e, m, refs)
		}
	})
}
