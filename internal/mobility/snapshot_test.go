package mobility

import (
	"testing"

	"vinfra/internal/geo"
)

// TestRandomWaypointSnapshotRoundTrip pins the mover blob: a restored
// RandomWaypoint continues toward the exact destination the snapshotted
// one was traveling to, so the resumed trajectory is identical.
func TestRandomWaypointSnapshotRoundTrip(t *testing.T) {
	area := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 100, Y: 100}}
	rnd := func(n int) int { return n / 3 } // fixed, deterministic draws

	m := &RandomWaypoint{Area: area, VMax: 2}
	pos := geo.Point{X: 50, Y: 50}
	for r := 0; r < 5; r++ {
		pos = m.Move(0, pos, rnd)
	}

	fresh := &RandomWaypoint{Area: area, VMax: 2}
	if err := fresh.RestoreState(m.AppendState(nil)); err != nil {
		t.Fatal(err)
	}
	a, b := pos, pos
	for r := 0; r < 10; r++ {
		a = m.Move(0, a, rnd)
		b = fresh.Move(0, b, rnd)
		if a != b {
			t.Fatalf("round %d: restored mover at %+v, original at %+v", r, b, a)
		}
	}

	if err := fresh.RestoreState([]byte{0x01}); err == nil {
		t.Fatal("truncated blob accepted")
	}
}
