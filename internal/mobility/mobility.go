// Package mobility provides the motion model for mobile nodes (Section 2:
// nodes reside at locations in the plane and move with velocity bounded by
// vmax, receiving periodic location updates from a GPS-like service).
// RandomWaypoint is the model — an area and a speed, shared by every node
// that roams under it — and Leg is one node's progress through it; the
// engine keeps a Leg per moving node and advances it by at most VMax per
// round, deterministically given the node's random source. A static node
// has no model at all.
package mobility

import (
	"math"

	"vinfra/internal/geo"
	"vinfra/internal/wire"
)

// rndFloat converts the engine's integer random source into a uniform
// float64 in [0, 1).
func rndFloat(rnd func(int) int) float64 {
	const bits = 1 << 30
	return float64(rnd(bits)) / float64(bits)
}

// RandomWaypoint is the classic ad hoc mobility model: pick a uniform
// destination in Area, travel toward it at speed VMax per round, repeat on
// arrival. Area and VMax are required and never written, so one model
// serves any number of nodes, each with a Leg of its own; the leg it holds
// itself is Move's, for a caller that moves one point by hand.
type RandomWaypoint struct {
	Area geo.Rect
	VMax float64

	leg Leg
}

// Leg is one node's progress under a RandomWaypoint: the destination it is
// heading for, once it has one. The zero value has none yet, so its first
// round is Turn's, which draws one. The engine's packed kernel reads the
// two fields at fixed offsets, so their order is part of its contract
// (internal/sim's TestKernelLayout).
type Leg struct {
	dest    geo.Point
	hasDest bool
}

// Move advances the model's own leg from cur by one round, as the engine
// advances each node's leg: Ahead on the distance Dist measures, and Turn
// where Ahead declines. The round is not consulted.
func (m *RandomWaypoint) Move(_ int, cur geo.Point, rnd func(int) int) geo.Point {
	if next, ok := m.Ahead(&m.leg, cur, m.leg.Dist(cur)); ok {
		return next
	}
	return m.Turn(&m.leg, cur, rnd)
}

// Dist returns the distance from cur to the leg's destination. It is
// math.Hypot of the difference, bit for bit, for finite coordinates: the
// amd64 assembly returns hi·sqrt(1+(lo/hi)²) of the larger and the smaller
// magnitude, or 0 when both are 0, and so does Dist. Ordering the
// magnitudes as integers compiles to conditional moves, where a float
// comparison would branch on the node's heading and mispredict half the
// time. An infinite or NaN difference may come out NaN where math.Hypot
// says +Inf; Ahead hands a NaN distance to Turn.
//
// Dist and Ahead are the steady leg. Each fits the compiler's inlining
// budget — Dist exactly — so the engine's mobility loop runs them without a
// call (go build -gcflags=-m: "inlining call to mobility.(*Leg).Dist"). On
// amd64 the engine's packed kernel (internal/sim/move_amd64.s) runs the two
// of them on two nodes at once, in the same order of operations; it
// declines a pair Dist and Ahead would hand to Turn, and any pair with a
// NaN difference, which the scalar step then takes.
func (l *Leg) Dist(cur geo.Point) float64 {
	a := math.Float64bits(l.dest.X-cur.X) &^ (1 << 63)
	b := math.Float64bits(l.dest.Y-cur.Y) &^ (1 << 63)
	hi, lo := math.Float64frombits(max(a, b)), math.Float64frombits(min(a, b))
	if hi == 0 {
		return 0
	}
	lo /= hi
	return hi * math.Sqrt(1+lo*lo)
}

// Ahead returns the position one round on from cur along leg, whose
// destination is d away (Dist), and true — if the leg is steady: it has a
// destination, farther than VMax. A round on a steady leg draws nothing and
// cannot arrive. Otherwise Ahead returns false and the round is Turn's. The
// step stays (δ·(1/d))·VMax added to cur, δ the difference — the order
// geo.Vector.Unit and Scale give it — because folding the two factors into
// one would move positions by an ulp. The engine's packed kernel keeps
// that order too.
func (m *RandomWaypoint) Ahead(leg *Leg, cur geo.Point, d float64) (geo.Point, bool) {
	if !leg.hasDest || !(d > m.VMax) || d == 0 {
		return geo.Point{}, false
	}
	inv := 1 / d
	return geo.Point{X: cur.X + (leg.dest.X-cur.X)*inv*m.VMax, Y: cur.Y + (leg.dest.Y-cur.Y)*inv*m.VMax}, true
}

// Turn returns the position one round on from cur along a leg Ahead
// declined: the first draw, an arrival (a destination within VMax, which
// redraws from rnd), a landing, a node standing on its destination, or a
// distance Dist could not give. The vector to the destination and its length (one
// math.Hypot) serve the arrival test, the landing test and the unit step
// alike; the length is recomputed only on a redraw.
func (m *RandomWaypoint) Turn(leg *Leg, cur geo.Point, rnd func(int) int) geo.Point {
	step := leg.dest.Sub(cur)
	l := step.Len()
	if !leg.hasDest || l < m.VMax {
		leg.dest = geo.Point{
			X: m.Area.Min.X + rndFloat(rnd)*m.Area.Width(),
			Y: m.Area.Min.Y + rndFloat(rnd)*m.Area.Height(),
		}
		leg.hasDest = true
		step = leg.dest.Sub(cur)
		l = step.Len()
	}
	if l <= m.VMax {
		return leg.dest
	}
	var unit geo.Vector
	if l != 0 {
		unit = step.Scale(1 / l)
	}
	return cur.Add(unit.Scale(m.VMax))
}

// AppendState implements sim.Snapshotter: a leg's whole state is its
// destination (the model is configuration, rebuilt by the caller like
// every other snapshot in the stack).
func (l *Leg) AppendState(dst []byte) []byte {
	dst = wire.AppendBool(dst, l.hasDest)
	dst = wire.AppendFloat64(dst, l.dest.X)
	return wire.AppendFloat64(dst, l.dest.Y)
}

// RestoreState implements sim.Snapshotter.
func (l *Leg) RestoreState(data []byte) error {
	d := wire.Dec(data)
	hasDest := d.Bool()
	dest := geo.Point{X: d.Float64(), Y: d.Float64()}
	if err := d.Finish(); err != nil {
		return err
	}
	l.dest, l.hasDest = dest, hasDest
	return nil
}
