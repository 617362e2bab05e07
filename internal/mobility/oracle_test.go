package mobility

import (
	"math"
	"math/rand"
	"testing"

	"vinfra/internal/geo"
)

// referenceMove is RandomWaypoint.Move as it stood before it was rewritten
// to compute the step vector and its length once: three math.Hypot calls on
// the same vector (Dist, Len, and Len again inside Unit). It is kept as the
// bit-identity oracle — pinned world state (bench/expect.json, the golden
// experiment file) depends on every position the model has ever produced.
// The leg is what the model held itself before the engine kept one per node.
func referenceMove(m *RandomWaypoint, leg *Leg, cur geo.Point, rnd func(int) int) geo.Point {
	if !leg.hasDest || cur.Dist(leg.dest) < m.VMax {
		leg.dest = geo.Point{
			X: m.Area.Min.X + rndFloat(rnd)*m.Area.Width(),
			Y: m.Area.Min.Y + rndFloat(rnd)*m.Area.Height(),
		}
		leg.hasDest = true
	}
	step := leg.dest.Sub(cur)
	if step.Len() <= m.VMax {
		return leg.dest
	}
	return cur.Add(step.Unit().Scale(m.VMax))
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestHypotMatchesMath holds the hypot the engine inlines — Leg.Dist, here
// from the origin to (p, q) — to math.Hypot, bit for bit: a million random
// finite pairs drawn across the whole exponent range and at the magnitudes
// positions take, and the cases a random draw does not reach — zeros of
// either sign, subnormals, equal components, one component far below the
// other, and 1e308, where the result overflows.
func TestHypotMatchesMath(t *testing.T) {
	check := func(p, q float64) {
		t.Helper()
		leg := Leg{dest: geo.Point{X: p, Y: q}, hasDest: true}
		if got, want := leg.Dist(geo.Point{}), math.Hypot(p, q); !sameBits(got, want) {
			t.Fatalf("hypot(%v, %v) = %v (%#x), math.Hypot %v (%#x)", p, q, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	sub := math.SmallestNonzeroFloat64
	special := []float64{0, math.Copysign(0, -1), sub, -sub, 3 * sub, 0x1p-1030, math.Nextafter(0x1p-1022, 0),
		0x1p-1022, 1e-300, 0.02, 1, 3, 4, 5, 1e8, 1e154, 1e300, 1e308, -1e308, math.MaxFloat64}
	for _, p := range special {
		for _, q := range special {
			check(p, q)
		}
		check(p, p)
		check(p, -p)
	}
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		var p, q float64
		if i%2 == 0 {
			// Any finite bit pattern: every exponent, subnormals included.
			for p = math.NaN(); math.IsNaN(p) || math.IsInf(p, 0); {
				p = math.Float64frombits(rnd.Uint64())
			}
			for q = math.NaN(); math.IsNaN(q) || math.IsInf(q, 0); {
				q = math.Float64frombits(rnd.Uint64())
			}
		} else {
			// Differences of positions on a city-sized field.
			p, q = (rnd.Float64()-0.5)*200, (rnd.Float64()-0.5)*200
		}
		check(p, q)
	}
}

// TestMoveMatchesReference holds Move — Dist, Ahead and Turn, composed as
// the engine's mobility loop composes them — to the reference on a walk
// with frequent arrivals; the engine-level oracle in engine_oracle_test.go
// is where the long runs are.
func TestMoveMatchesReference(t *testing.T) {
	m := &RandomWaypoint{Area: geo.Rect{Max: geo.Point{X: 4, Y: 4}}, VMax: 1}
	ref := &RandomWaypoint{Area: m.Area, VMax: m.VMax}
	var refLeg Leg
	a, b := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	p, q := geo.Point{X: 1, Y: 3}, geo.Point{X: 1, Y: 3}
	for i := 0; i < 10_000; i++ {
		p = m.Move(0, p, a.Intn)
		q = referenceMove(ref, &refLeg, q, b.Intn)
		if !sameBits(p.X, q.X) || !sameBits(p.Y, q.Y) || m.leg != refLeg {
			t.Fatalf("step %d: %v heading %v, reference %v heading %v", i, p, m.leg.dest, q, refLeg.dest)
		}
	}
}
