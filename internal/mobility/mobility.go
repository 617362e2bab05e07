// Package mobility provides the motion model for mobile nodes (Section 2:
// nodes reside at locations in the plane and move with velocity bounded by
// vmax, receiving periodic location updates from a GPS-like service).
// RandomWaypoint implements sim.Mover and advances a position by at most
// VMax per round, deterministically given the node's random source; a
// static node has no mover at all.
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
