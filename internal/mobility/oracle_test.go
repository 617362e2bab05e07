package mobility

import (
	"math"
	"testing"

	"vinfra/internal/det"
	"vinfra/internal/geo"
)

// referenceMove is RandomWaypoint.Move as it stood before it was rewritten
// to compute the step vector and its length once: three math.Hypot calls on
// the same vector (Dist, Len, and Len again inside Unit). It is kept as the
// bit-identity oracle — pinned world state (bench/expect.json, the golden
// experiment file) depends on every position the model has ever produced.
func referenceMove(m *RandomWaypoint, cur geo.Point, rnd func(int) int) geo.Point {
	if !m.hasDest || cur.Dist(m.dest) < m.VMax {
		m.dest = geo.Point{
			X: m.Area.Min.X + rndFloat(rnd)*m.Area.Width(),
			Y: m.Area.Min.Y + rndFloat(rnd)*m.Area.Height(),
		}
		m.hasDest = true
	}
	step := m.dest.Sub(cur)
	if step.Len() <= m.VMax {
		return m.dest
	}
	return cur.Add(step.Unit().Scale(m.VMax))
}

// countedStream is a node's random source with a draw counter.
type countedStream struct {
	s     *det.Stream
	draws int
}

func (c *countedStream) intn(n int) int {
	c.draws++
	return c.s.Intn(n)
}

func sameBits(a, b geo.Point) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y)
}

// TestRandomWaypointMatchesReferenceBitForBit walks the rewritten Move and
// the reference side by side for over a million steps and requires the same
// position, destination and number of draws after every one, down to the
// last bit. The configurations cover long legs with rare arrivals (the city
// workloads' 90x90 field at vmax 0.02), frequent arrivals and redraws (a
// field a few steps wide), a negative-coordinate field, and a degenerate
// field of zero size where cur == dest on every call; halfway through, the
// model under test is replaced by one restored from its own snapshot.
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
	const steps = 60_000
	total := 0
	for _, cfg := range configs {
		for seed := int64(1); seed <= 4; seed++ {
			fast := &RandomWaypoint{Area: cfg.area, VMax: cfg.vmax}
			ref := &RandomWaypoint{Area: cfg.area, VMax: cfg.vmax}
			fastRnd := &countedStream{s: det.NewStream(seed, 9)}
			refRnd := &countedStream{s: det.NewStream(seed, 9)}
			a, b := cfg.start, cfg.start
			for i := 0; i < steps; i++ {
				if i == steps/2 {
					restored := &RandomWaypoint{Area: cfg.area, VMax: cfg.vmax}
					if err := restored.RestoreState(fast.AppendState(nil)); err != nil {
						t.Fatal(err)
					}
					fast = restored
				}
				a = fast.Move(0, a, fastRnd.intn)
				b = referenceMove(ref, b, refRnd.intn)
				if !sameBits(a, b) || !sameBits(fast.dest, ref.dest) || fast.hasDest != ref.hasDest || fastRnd.draws != refRnd.draws {
					t.Fatalf("%s seed %d step %d: position %v dest %v draws %d, reference %v %v %d",
						cfg.name, seed, i, a, fast.dest, fastRnd.draws, b, ref.dest, refRnd.draws)
				}
			}
			if fastRnd.draws <= 2 {
				t.Errorf("%s seed %d: never came within vmax of a destination, the redraw path went unexercised", cfg.name, seed)
			}
			total += steps
		}
	}
	if total < 1_000_000 {
		t.Fatalf("compared %d steps, want at least 10^6", total)
	}
}

// scripted returns the given draws in order.
func scripted(draws ...int) func(int) int {
	return func(int) int {
		d := draws[0]
		draws = draws[1:]
		return d
	}
}

// TestRandomWaypointEdgeStepsMatchReference stages the comparisons the
// random walk above only reaches by luck: a leg of exactly VMax (3-4-5: not
// an arrival, l < VMax is false, but an exact landing, l <= VMax), the
// redraw that follows from standing on the destination, a leg one ulp
// either side of VMax, and a zero and a negative VMax (where the unit vector
// of a zero step must stay the zero vector).
func TestRandomWaypointEdgeStepsMatchReference(t *testing.T) {
	const unit = 1 << 30 // rndFloat's denominator: a draw of k*unit/8 is k/8
	area := geo.Rect{Max: geo.Point{X: 8, Y: 8}}
	for _, vmax := range []float64{5, math.Nextafter(5, 6), math.Nextafter(5, 4), 0, -1} {
		// Destinations drawn: (3,4) from the origin, then (8,8)-ish, then (0,0).
		draws := []int{3 * unit / 8, 4 * unit / 8, unit - 1, unit - 1, 0, 0, unit / 2, unit / 2}
		fast := &RandomWaypoint{Area: area, VMax: vmax}
		ref := &RandomWaypoint{Area: area, VMax: vmax}
		fastRnd, refRnd := scripted(draws...), scripted(draws...)
		var a, b geo.Point
		for i := 0; i < 4; i++ {
			a = fast.Move(0, a, fastRnd)
			b = referenceMove(ref, b, refRnd)
			if !sameBits(a, b) || !sameBits(fast.dest, ref.dest) {
				t.Fatalf("vmax %v step %d: position %v dest %v, reference %v %v", vmax, i, a, fast.dest, b, ref.dest)
			}
		}
	}
}
