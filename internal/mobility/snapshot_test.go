package mobility

import (
	"testing"

	"vinfra/internal/geo"
)

// TestRandomWaypointSnapshotRoundTrip pins the blob of a node's leg under
// the model: a leg restored from one continues toward the exact destination
// the snapshotted one was traveling to, so the resumed trajectory is
// identical, and a blob AppendState could not have written is refused and
// changes nothing.
func TestRandomWaypointSnapshotRoundTrip(t *testing.T) {
	m := &RandomWaypoint{Area: geo.Rect{Max: geo.Point{X: 100, Y: 100}}, VMax: 2}
	rnd := func(n int) int { return n / 3 } // fixed, deterministic draws

	pos := geo.Point{X: 50, Y: 50}
	var leg Leg
	step := func(l *Leg, at geo.Point) geo.Point {
		if next, ok := m.Ahead(l, at, l.Dist(at)); ok {
			return next
		}
		return m.Turn(l, at, rnd)
	}
	for r := 0; r < 5; r++ {
		pos = step(&leg, pos)
	}
	blob := leg.AppendState(nil)
	if len(blob) != 17 {
		t.Fatalf("leg blob is %d bytes, want 17 (bool hasDest, float64 X, float64 Y)", len(blob))
	}

	var fresh Leg
	if err := fresh.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	a, b := pos, pos
	for r := 0; r < 10; r++ {
		a = step(&leg, a)
		b = step(&fresh, b)
		if a != b {
			t.Fatalf("round %d: restored leg at %+v, original at %+v", r, b, a)
		}
	}

	before := fresh
	if err := fresh.RestoreState([]byte{0x01}); err == nil {
		t.Fatal("truncated blob accepted")
	}
	if fresh != before {
		t.Fatal("a refused blob changed the leg")
	}
}
