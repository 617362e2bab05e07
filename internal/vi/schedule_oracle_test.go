package vi

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"vinfra/internal/geo"
)

// neighborGraph returns, for each location index, the indexes of the other
// locations within threshold distance, in increasing index order: the
// conflict graph BuildSchedule used to build in full before coloring it,
// through a geo.CellIndex whose cell is the threshold. It is kept here as
// the oracle's half, with the tests it had in geo.
func neighborGraph(locs []geo.Point, threshold float64) [][]int {
	adj := make([][]int, len(locs))
	if len(locs) == 0 {
		return adj
	}
	t2 := threshold * threshold
	ix := geo.BuildCellIndex(locs, threshold)
	var buf []int32
	for i := range locs {
		buf = ix.Near(buf[:0], locs[i], 1)
		for _, j := range buf {
			if int(j) != i && locs[i].Dist2(locs[j]) <= t2 {
				adj[i] = append(adj[i], int(j))
			}
		}
		sort.Ints(adj[i])
	}
	return adj
}

// oracleSchedule is BuildSchedule as it was while it built the conflict
// graph: one sorted neighbor list per virtual node, then the greedy pass in
// index order with a slot-mark buffer cleared by walking the list again.
// BuildSchedule must produce the same Schedule, slot for slot.
func oracleSchedule(locs []geo.Point, radii geo.Radii) Schedule {
	adj := neighborGraph(locs, ConflictThreshold(radii))
	slotOf := make([]int, len(locs))
	for i := range slotOf {
		slotOf[i] = -1
	}
	maxDeg := 0
	for _, ns := range adj {
		maxDeg = max(maxDeg, len(ns))
	}
	used := make([]bool, maxDeg+1)
	maxSlot := -1
	for v := range locs {
		for _, u := range adj[v] {
			if s := slotOf[u]; s >= 0 {
				used[s] = true
			}
		}
		slot := 0
		for used[slot] {
			slot++
		}
		for _, u := range adj[v] {
			if s := slotOf[u]; s >= 0 {
				used[s] = false
			}
		}
		slotOf[v] = slot
		maxSlot = max(maxSlot, slot)
	}
	slots := make([][]VNodeID, maxSlot+1)
	for v, s := range slotOf {
		slots[s] = append(slots[s], VNodeID(v))
	}
	return Schedule{slots: slots, slotOf: slotOf}
}

// matchesOracle reports whether BuildSchedule's schedule of locs is the
// oracle's.
func matchesOracle(locs []geo.Point, radii geo.Radii) bool {
	return reflect.DeepEqual(BuildSchedule(locs, radii), oracleSchedule(locs, radii))
}

// TestScheduleMatchesOracle holds the cell-index coloring to the
// neighbor-list one on every shape of layout: the degenerate grids, grids
// from dense (every virtual node conflicts with dozens) to sparse (none
// conflict), random point sets with coincident points, and a layout spread
// so wide that the location index coarsens its buckets.
func TestScheduleMatchesOracle(t *testing.T) {
	check := func(name string, locs []geo.Point, radii geo.Radii) {
		t.Helper()
		if !matchesOracle(locs, radii) {
			t.Errorf("%s (%d locations): BuildSchedule %+v, oracle %+v",
				name, len(locs), BuildSchedule(locs, radii), oracleSchedule(locs, radii))
		}
	}
	check("empty", nil, testRadii)
	check("1x1", geo.Grid{Spacing: 6, Cols: 1, Rows: 1}.Locations(), testRadii)
	for _, n := range []int{2, 7, 40} {
		check("1xN", geo.Grid{Spacing: 6, Cols: 1, Rows: n}.Locations(), testRadii)
		check("Nx1", geo.Grid{Spacing: 13, Cols: n, Rows: 1}.Locations(), testRadii)
	}
	rng := rand.New(rand.NewSource(40))
	for spacing := 1.0; spacing <= 60; spacing++ {
		g := geo.Grid{Spacing: spacing, Cols: 1 + rng.Intn(20), Rows: 1 + rng.Intn(20)}
		check("grid", g.Locations(), testRadii)
	}
	for trial := 0; trial < 150; trial++ {
		n := 1 + rng.Intn(300)
		span := 10 + rng.Float64()*400
		locs := make([]geo.Point, n)
		for i := range locs {
			locs[i] = geo.Point{X: rng.Float64()*span - span/2, Y: rng.Float64()*span - span/2}
		}
		// A coincident point: distance 0 conflicts with everything the
		// original does, and with the original itself.
		locs[rng.Intn(n)] = locs[rng.Intn(n)]
		radii := geo.Radii{R1: 1 + rng.Float64()*10}
		radii.R2 = radii.R1 * (1 + rng.Float64())
		check("random", locs, radii)
	}
	// Clusters a million units apart: their cell bounding box holds far
	// more than the index's 32 buckets per point plus 64, so it coarsens
	// (shift > 0) and filters each bucket by cell.
	var wide []geo.Point
	for c := 0; c < 4; c++ {
		for i := 0; i < 30; i++ {
			wide = append(wide, geo.Point{X: float64(c)*1e6 + rng.Float64()*80, Y: float64(c%2)*1e6 + rng.Float64()*80})
		}
	}
	if cells := math.Pow(2e6/ConflictThreshold(testRadii), 2); cells <= float64(32*len(wide)+64) {
		t.Fatalf("the wide layout spans %.0f cells: too few to coarsen the index", cells)
	}
	check("wide", wide, testRadii)
}

// FuzzScheduleMatchesOracle holds BuildSchedule to the oracle on fuzzed
// coordinates. A nonzero scale reads each coordinate as an int16 in steps
// of 1/scale, so points crowd within the conflict threshold of each other
// or spread past it and coarsen the index; scale 0 reads raw float64 bits,
// NaN, infinities and overflowing distances included.
func FuzzScheduleMatchesOracle(f *testing.F) {
	f.Add(uint8(1), []byte{0, 0, 0, 0, 6, 0, 0, 0, 0, 0, 6, 0, 6, 0, 6, 0})
	f.Add(uint8(4), []byte{1, 0, 1, 0, 1, 0, 1, 0, 255, 127, 0, 128, 9, 9, 9, 9})
	f.Add(uint8(0), binary.LittleEndian.AppendUint64(make([]byte, 8), math.Float64bits(math.NaN())))
	f.Fuzz(func(t *testing.T, scale uint8, data []byte) {
		var locs []geo.Point
		if scale == 0 {
			for ; len(data) >= 16 && len(locs) < 256; data = data[16:] {
				locs = append(locs, geo.Point{
					X: math.Float64frombits(binary.LittleEndian.Uint64(data)),
					Y: math.Float64frombits(binary.LittleEndian.Uint64(data[8:])),
				})
			}
		} else {
			step := 1 / float64(scale)
			for ; len(data) >= 4 && len(locs) < 512; data = data[4:] {
				locs = append(locs, geo.Point{
					X: float64(int16(binary.LittleEndian.Uint16(data))) * step,
					Y: float64(int16(binary.LittleEndian.Uint16(data[2:]))) * step,
				})
			}
		}
		if !matchesOracle(locs, testRadii) {
			t.Fatalf("BuildSchedule of %v differs from the oracle:\n got %+v\nwant %+v",
				locs, BuildSchedule(locs, testRadii), oracleSchedule(locs, testRadii))
		}
	})
}

func TestNeighborGraph(t *testing.T) {
	locs := []geo.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 3, Y: 0}, {X: 10, Y: 10}}
	adj := neighborGraph(locs, 2.5)
	// 0-1 (d=1) and 1-2 (d=2) are within 2.5; 0-2 (d=3) is not.
	wantDeg := []int{1, 2, 1, 0}
	for i, want := range wantDeg {
		if got := len(adj[i]); got != want {
			t.Errorf("deg(%d) = %d, want %d (adj=%v)", i, got, want, adj[i])
		}
	}
}

func TestNeighborGraphSymmetric(t *testing.T) {
	adj := neighborGraph(geo.Grid{Spacing: 1, Cols: 5, Rows: 5}.Locations(), 1.5)
	for i, ns := range adj {
		for _, j := range ns {
			found := false
			for _, back := range adj[j] {
				if back == i {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("edge %d->%d not symmetric", i, j)
			}
		}
	}
}

func TestNeighborGraphGridDegrees(t *testing.T) {
	// With threshold 1.0 on a unit grid, interior nodes have exactly 4
	// neighbors, corners 2, edges 3.
	adj := neighborGraph(geo.Grid{Spacing: 1, Cols: 3, Rows: 3}.Locations(), 1.0)
	wantDeg := []int{2, 3, 2, 3, 4, 3, 2, 3, 2}
	for i, want := range wantDeg {
		if got := len(adj[i]); got != want {
			t.Errorf("deg(%d) = %d, want %d", i, got, want)
		}
	}
}

// TestNeighborGraphMatchesBruteForce pins the CellIndex-backed
// neighborGraph to the quadratic definition, including adjacency order.
func TestNeighborGraphMatchesBruteForce(t *testing.T) {
	f := func(seed uint32, nRaw uint8, tRaw uint8) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := int(nRaw % 50)
		threshold := 0.5 + float64(tRaw%30)
		locs := make([]geo.Point, n)
		for i := range locs {
			locs[i] = geo.Point{X: rng.Float64()*60 - 30, Y: rng.Float64()*60 - 30}
		}
		got := neighborGraph(locs, threshold)
		want := make([][]int, n)
		t2 := threshold * threshold
		for i := range locs {
			for j := range locs {
				if i != j && locs[i].Dist2(locs[j]) <= t2 {
					want[i] = append(want[i], j)
				}
			}
		}
		for i := range want {
			if len(got[i]) != len(want[i]) {
				return false
			}
			for k := range want[i] {
				if got[i][k] != want[i][k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
