// Package mobility provides the motion models for mobile nodes (Section 2:
// nodes reside at locations in the plane and move with velocity bounded by
// vmax, receiving periodic location updates from a GPS-like service). All
// models implement sim.Mover and advance positions by at most VMax per
// round, deterministically given the node's random source.
package mobility

import (
	"vinfra/internal/geo"
	"vinfra/internal/sim"
	"vinfra/internal/wire"
)

// rndFloat converts the engine's integer random source into a uniform
// float64 in [0, 1).
func rndFloat(rnd func(int) int) float64 {
	const bits = 1 << 30
	return float64(rnd(bits)) / float64(bits)
}

// Static never moves. It is the zero-mobility model used when replicas are
// pinned inside a virtual node's region.
type Static struct{}

// Move implements sim.Mover.
func (Static) Move(_ sim.Round, cur geo.Point, _ func(int) int) geo.Point {
	return cur
}

// Linear moves with a constant velocity vector each round (a vehicle on a
// straight road). Callers must keep Velocity.Len() <= vmax themselves.
type Linear struct {
	Velocity geo.Vector
}

// Move implements sim.Mover.
func (l Linear) Move(_ sim.Round, cur geo.Point, _ func(int) int) geo.Point {
	return cur.Add(l.Velocity)
}

// RandomWaypoint is the classic ad hoc mobility model: pick a uniform
// destination in Area, travel toward it at speed VMax per round, repeat on
// arrival. The zero value is invalid; all fields are required.
type RandomWaypoint struct {
	Area geo.Rect
	VMax float64

	dest    geo.Point
	hasDest bool
}

// Move implements sim.Mover. The vector to the destination and its length
// (one math.Hypot) are computed once and serve the arrival test, the
// landing test and the unit step alike; the length is recomputed only on a
// redraw. The unit step stays step.Scale(1/l).Scale(VMax) — geo.Vector.Unit
// with the length already known — because folding the two factors into one
// would move positions by an ulp.
func (m *RandomWaypoint) Move(_ sim.Round, cur geo.Point, rnd func(int) int) geo.Point {
	step := m.dest.Sub(cur)
	l := step.Len()
	if !m.hasDest || l < m.VMax {
		m.dest = geo.Point{
			X: m.Area.Min.X + rndFloat(rnd)*m.Area.Width(),
			Y: m.Area.Min.Y + rndFloat(rnd)*m.Area.Height(),
		}
		m.hasDest = true
		step = m.dest.Sub(cur)
		l = step.Len()
	}
	if l <= m.VMax {
		return m.dest
	}
	var unit geo.Vector
	if l != 0 {
		unit = step.Scale(1 / l)
	}
	return cur.Add(unit.Scale(m.VMax))
}

// AppendState implements sim.Snapshotter: the model's only mutable state is
// the current destination (the Area/VMax configuration is rebuilt by the
// caller, like every other snapshot in the stack).
func (m *RandomWaypoint) AppendState(dst []byte) []byte {
	dst = wire.AppendBool(dst, m.hasDest)
	dst = wire.AppendFloat64(dst, m.dest.X)
	return wire.AppendFloat64(dst, m.dest.Y)
}

// RestoreState implements sim.Snapshotter.
func (m *RandomWaypoint) RestoreState(data []byte) error {
	d := wire.Dec(data)
	m.hasDest = d.Bool()
	m.dest.X = d.Float64()
	m.dest.Y = d.Float64()
	return d.Finish()
}

// Waypoints follows a fixed cyclic tour of points at speed VMax per round —
// the paper's motivating mobile-robot scenario, where robots are directed
// between virtual-node locations.
type Waypoints struct {
	Tour []geo.Point
	VMax float64

	next int
}

// Move implements sim.Mover.
func (m *Waypoints) Move(_ sim.Round, cur geo.Point, _ func(int) int) geo.Point {
	if len(m.Tour) == 0 {
		return cur
	}
	target := m.Tour[m.next%len(m.Tour)]
	step := target.Sub(cur)
	if step.Len() <= m.VMax {
		m.next = (m.next + 1) % len(m.Tour)
		return target
	}
	return cur.Add(step.Unit().Scale(m.VMax))
}

// AppendState implements sim.Snapshotter: the tour position is the model's
// only mutable state.
func (m *Waypoints) AppendState(dst []byte) []byte {
	return wire.AppendUvarint(dst, uint64(m.next))
}

// RestoreState implements sim.Snapshotter.
func (m *Waypoints) RestoreState(data []byte) error {
	d := wire.Dec(data)
	m.next = int(d.Uvarint())
	return d.Finish()
}

// Tether performs a bounded random walk around a fixed anchor: each round
// it takes a uniform random step of at most VMax, rejected (stay put) if it
// would leave the disk of the given Radius around Anchor. It models devices
// that linger near a virtual-node location — the population that keeps a
// virtual node alive (Section 4.2).
type Tether struct {
	Anchor geo.Point
	Radius float64
	VMax   float64
}

// Move implements sim.Mover.
func (m Tether) Move(_ sim.Round, cur geo.Point, rnd func(int) int) geo.Point {
	dx := (rndFloat(rnd)*2 - 1) * m.VMax
	dy := (rndFloat(rnd)*2 - 1) * m.VMax
	next := cur.Add(geo.Vector{DX: dx, DY: dy})
	if next.Dist(m.Anchor) > m.Radius {
		return cur
	}
	return next
}
