package mobility

import (
	"math/rand"
	"testing"

	"vinfra/internal/geo"
)

func intn(seed int64) func(int) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn
}

func TestRandomWaypointStaysInAreaAndRespectsVMax(t *testing.T) {
	area := geo.Rect{Min: geo.Point{}, Max: geo.Point{X: 50, Y: 50}}
	m := &RandomWaypoint{Area: area, VMax: 2}
	rnd := intn(7)
	cur := geo.Point{X: 25, Y: 25}
	for i := 0; i < 500; i++ {
		next := m.Move(0, cur, rnd)
		if d := next.Dist(cur); d > 2+1e-9 {
			t.Fatalf("step %d: moved %v > vmax", i, d)
		}
		if !area.Contains(next) {
			t.Fatalf("step %d: left the area: %v", i, next)
		}
		cur = next
	}
}

func TestRandomWaypointActuallyMoves(t *testing.T) {
	area := geo.Rect{Min: geo.Point{}, Max: geo.Point{X: 50, Y: 50}}
	m := &RandomWaypoint{Area: area, VMax: 1}
	rnd := intn(3)
	start := geo.Point{X: 25, Y: 25}
	cur := start
	for i := 0; i < 100; i++ {
		cur = m.Move(0, cur, rnd)
	}
	if cur.Dist(start) == 0 {
		t.Error("random waypoint never moved in 100 rounds")
	}
}

func TestDeterminism(t *testing.T) {
	area := geo.Rect{Min: geo.Point{}, Max: geo.Point{X: 50, Y: 50}}
	run := func() geo.Point {
		m := &RandomWaypoint{Area: area, VMax: 2}
		rnd := intn(42)
		cur := geo.Point{X: 10, Y: 10}
		for i := 0; i < 200; i++ {
			cur = m.Move(0, cur, rnd)
		}
		return cur
	}
	if run() != run() {
		t.Error("same seed should reproduce the same trajectory")
	}
}
