package vi

import (
	"math/rand"
	"testing"
	"testing/quick"

	"vinfra/internal/geo"
	"vinfra/internal/sim"
)

// Property: BuildSchedule is complete and non-conflicting for arbitrary
// point sets.
func TestBuildSchedulePropertyRandomPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := func(seed uint32, nRaw uint8) bool {
		n := int(nRaw%12) + 1
		r := rand.New(rand.NewSource(int64(seed)))
		locs := make([]geo.Point, n)
		for i := range locs {
			locs[i] = geo.Point{X: r.Float64() * 120, Y: r.Float64() * 120}
		}
		s := BuildSchedule(locs, testRadii)
		return s.Validate(locs, testRadii) == nil
	}
	cfg := &quick.Config{Rand: rng, MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: every virtual node is scheduled exactly once per schedule
// period, whatever the deployment.
func TestSchedulePeriodicityProperty(t *testing.T) {
	f := func(seed uint32, nRaw uint8) bool {
		n := int(nRaw%8) + 1
		r := rand.New(rand.NewSource(int64(seed)))
		locs := make([]geo.Point, n)
		for i := range locs {
			locs[i] = geo.Point{X: r.Float64() * 100, Y: r.Float64() * 100}
		}
		s := BuildSchedule(locs, testRadii)
		for v := 0; v < n; v++ {
			count := 0
			for vr := 0; vr < s.Len(); vr++ {
				if s.ScheduledIn(VNodeID(v), vr) {
					count++
				}
			}
			if count != 1 {
				return false
			}
			// Periodicity.
			if !s.ScheduledIn(VNodeID(v), s.SlotOf(VNodeID(v))+3*s.Len()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: timing decomposition is a bijection — every radio round maps
// to exactly one (vround, phase, subslot), and reconstructing the round
// index from the decomposition round-trips.
func TestTimingDecomposeBijection(t *testing.T) {
	for _, s := range []int{1, 3, 7} {
		tm := Timing{S: s}
		per := tm.RoundsPerVRound()
		seen := make(map[[3]int]bool)
		for r := 0; r < 3*per; r++ {
			vr, ph, ss := tm.Decompose(sim.Round(r))
			key := [3]int{vr, int(ph), ss}
			if ph == PhaseUnschedBallot {
				key = [3]int{vr, int(ph), ss}
			} else if ss != -1 {
				t.Fatalf("s=%d r=%d: non-ballot phase with subslot %d", s, r, ss)
			}
			if seen[key] && ph != PhaseUnschedBallot {
				t.Fatalf("s=%d: duplicate decomposition %v", s, key)
			}
			seen[key] = true
			if vr != r/per {
				t.Fatalf("s=%d r=%d: vround %d, want %d", s, r, vr, r/per)
			}
		}
	}
}

// buildScheduleReference is the original map-based greedy coloring: for
// each node in index order, collect the neighbor slots in a map and take
// the smallest free slot. BuildSchedule has since replaced the map with
// stamped slot marks and the neighbor lists with location-index probes;
// this reference pins that the produced coloring is bit-identical.
func buildScheduleReference(locs []geo.Point, radii geo.Radii) []int {
	adj := neighborGraph(locs, ConflictThreshold(radii))
	slotOf := make([]int, len(locs))
	for i := range slotOf {
		slotOf[i] = -1
	}
	for v := range locs {
		used := make(map[int]bool, len(adj[v]))
		for _, u := range adj[v] {
			if slotOf[u] >= 0 {
				used[slotOf[u]] = true
			}
		}
		slot := 0
		for used[slot] {
			slot++
		}
		slotOf[v] = slot
	}
	return slotOf
}

// Property: BuildSchedule's coloring equals the map-based greedy coloring
// on arbitrary deployments — how it finds neighbors and marks their slots
// is a pure optimization, not a schedule change.
func TestBuildScheduleMatchesMapReference(t *testing.T) {
	f := func(seed uint32, nRaw uint8) bool {
		n := int(nRaw%40) + 1
		r := rand.New(rand.NewSource(int64(seed)))
		locs := make([]geo.Point, n)
		for i := range locs {
			// Dense enough that conflict degrees get large.
			locs[i] = geo.Point{X: r.Float64() * 60, Y: r.Float64() * 60}
		}
		s := BuildSchedule(locs, testRadii)
		want := buildScheduleReference(locs, testRadii)
		for v := range locs {
			if s.SlotOf(VNodeID(v)) != want[v] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
