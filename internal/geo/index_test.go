package geo

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestCellIndexWithinMatchesBruteForce(t *testing.T) {
	f := func(seed uint32, nRaw uint8, cellRaw, rRaw uint8) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := int(nRaw%64) + 1
		cell := 0.5 + float64(cellRaw%40)
		r := 0.1 + float64(rRaw%60)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{X: rng.Float64()*100 - 50, Y: rng.Float64()*100 - 50}
		}
		ix := BuildCellIndex(pts, cell)
		for trial := 0; trial < 4; trial++ {
			q := Point{X: rng.Float64()*120 - 60, Y: rng.Float64()*120 - 60}
			got := ix.Within(nil, q, r)
			var want []int32
			for i := range pts {
				if pts[i].Dist2(q) <= r*r {
					want = append(want, int32(i))
				}
			}
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
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

func TestCellIndexNearIsSuperset(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := make([]Point, 200)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * 80, Y: rng.Float64() * 80}
	}
	const cell = 10.0
	ix := BuildCellIndex(pts, cell)
	for trial := 0; trial < 50; trial++ {
		q := Point{X: rng.Float64() * 80, Y: rng.Float64() * 80}
		near := ix.Near(nil, q, 1)
		seen := make(map[int32]bool, len(near))
		for _, i := range near {
			seen[i] = true
		}
		for i := range pts {
			if pts[i].Dist2(q) <= cell*cell && !seen[int32(i)] {
				t.Fatalf("point %d within %v of %v missing from Near", i, cell, q)
			}
		}
	}
}

func TestCellIndexRings(t *testing.T) {
	ix := BuildCellIndex(nil, 10)
	cases := []struct {
		r    float64
		want int
	}{
		{0, 0}, {-1, 0}, {5, 1}, {10, 1}, {10.01, 2}, {25, 3},
	}
	for _, c := range cases {
		if got := ix.Rings(c.r); got != c.want {
			t.Errorf("Rings(%v) = %d, want %d", c.r, got, c.want)
		}
	}
}

func TestCellIndexNegativeCoordinates(t *testing.T) {
	// Floor (not truncation) must be used to key cells, or points just
	// left of the axis collapse into the cell just right of it.
	pts := []Point{{-0.5, -0.5}, {0.5, 0.5}}
	ix := BuildCellIndex(pts, 1)
	a, _ := ix.keyOf(pts[0])
	b, _ := ix.keyOf(pts[1])
	if a == b {
		t.Fatalf("points on opposite sides of the origin share cell %+v", a)
	}
	got := ix.Within(nil, Point{-0.5, -0.5}, 0.1)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("Within around (-0.5,-0.5) = %v, want [0]", got)
	}
}

func TestBuildCellIndexRejectsBadCell(t *testing.T) {
	for _, bad := range []float64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BuildCellIndex(cell=%v) did not panic", bad)
				}
			}()
			BuildCellIndex(nil, bad)
		}()
	}
}

// TestNeighborGraphMatchesBruteForce pins the CellIndex-backed
// NeighborGraph to the quadratic reference implementation, including
// adjacency order.
func TestNeighborGraphMatchesBruteForce(t *testing.T) {
	f := func(seed uint32, nRaw uint8, tRaw uint8) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := int(nRaw % 50)
		threshold := 0.5 + float64(tRaw%30)
		locs := make([]Point, n)
		for i := range locs {
			locs[i] = Point{X: rng.Float64()*60 - 30, Y: rng.Float64()*60 - 30}
		}
		got := NeighborGraph(locs, threshold)
		want := make([][]int, n)
		t2 := threshold * threshold
		for i := range locs {
			for j := range locs {
				if i != j && locs[i].Dist2(locs[j]) <= t2 {
					want[i] = append(want[i], j)
				}
			}
			sort.Ints(want[i])
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

// TestCellIndexNearestWithinMatchesBruteForce pins the gridded
// nearest-within-radius query to a linear scan applying the same rule
// (smallest distance, exact ties toward the lower index).
func TestCellIndexNearestWithinMatchesBruteForce(t *testing.T) {
	f := func(seed uint32, nRaw uint8, cellRaw, rRaw uint8) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := int(nRaw % 64) // zero points is a valid index
		cell := 0.5 + float64(cellRaw%40)
		r := 0.1 + float64(rRaw%60)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{X: rng.Float64()*100 - 50, Y: rng.Float64()*100 - 50}
		}
		ix := BuildCellIndex(pts, cell)
		for trial := 0; trial < 4; trial++ {
			q := Point{X: rng.Float64()*120 - 60, Y: rng.Float64()*120 - 60}
			got, ok := ix.NearestWithin(q, r)
			want, wantOK := -1, false
			bestD2 := r * r
			for i := range pts {
				if d2 := pts[i].Dist2(q); d2 <= bestD2 && (!wantOK || d2 < bestD2) {
					want, wantOK = i, true
					bestD2 = d2
				}
			}
			if ok != wantOK || (ok && got != want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCellIndexNearestWithinTiesAndEdges(t *testing.T) {
	pts := []Point{{X: 2}, {X: -2}, {X: 10}}
	ix := BuildCellIndex(pts, 2)
	// Exact tie between indices 0 and 1 breaks toward the lower index.
	if got, ok := ix.NearestWithin(Point{}, 3); !ok || got != 0 {
		t.Errorf("tie = (%d, %v), want (0, true)", got, ok)
	}
	// The radius is inclusive.
	if got, ok := ix.NearestWithin(Point{}, 2); !ok || got != 0 {
		t.Errorf("inclusive boundary = (%d, %v), want (0, true)", got, ok)
	}
	// Nothing within range.
	if _, ok := ix.NearestWithin(Point{Y: 50}, 3); ok {
		t.Error("found a point where none is within range")
	}
	// Negative radius finds nothing.
	if _, ok := ix.NearestWithin(Point{X: 2}, -1); ok {
		t.Error("negative radius found a point")
	}
}

// TestCellIndexRebuildMatchesFreshBuild drives Rebuild through several
// rounds of shifting points and compares every query against a freshly
// built index — and checks the steady state allocates nothing.
func TestCellIndexRebuildMatchesFreshBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const cell = 5.0
	pts := make([]Point, 120)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * 60, Y: rng.Float64() * 60}
	}
	ix := BuildCellIndex(pts, cell)
	for round := 0; round < 6; round++ {
		// Shift points (and change the count) as a mobile round would.
		pts = pts[:60+rng.Intn(60)]
		for i := range pts {
			pts[i] = Point{X: rng.Float64() * 60, Y: rng.Float64() * 60}
		}
		ix.Rebuild(pts)
		fresh := BuildCellIndex(pts, cell)
		if ix.Len() != fresh.Len() {
			t.Fatalf("round %d: Len = %d, want %d", round, ix.Len(), fresh.Len())
		}
		for trial := 0; trial < 20; trial++ {
			q := Point{X: rng.Float64() * 60, Y: rng.Float64() * 60}
			got := ix.Within(nil, q, 7)
			want := fresh.Within(nil, q, 7)
			if len(got) != len(want) {
				t.Fatalf("round %d: Within lengths differ: %v vs %v", round, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("round %d: Within = %v, want %v", round, got, want)
				}
			}
		}
	}
	// Rebuilding in place over the same cells must not allocate.
	if avg := testing.AllocsPerRun(20, func() { ix.Rebuild(pts) }); avg > 0 {
		t.Errorf("steady-state Rebuild allocates %.1f times per call, want 0", avg)
	}
}

// mapIndex is the hash-map CellIndex the dense layout replaced, kept as the
// reference the dense one is compared against: one bucket per occupied
// cell, cells probed row-major, indices in increasing order within a cell.
// It defines "indexed nowhere" the same way (keyOf), so the two agree on
// hostile coordinates by construction and the comparison below is about
// layout: bounding box, coarsening, the counting sort, the cell filter.
type mapIndex struct {
	ix    *CellIndex // for keyOf and Rings only
	pts   []Point
	cells map[cellKey][]int32
}

func buildMapIndex(pts []Point, cell float64) *mapIndex {
	m := &mapIndex{ix: &CellIndex{cell: cell, inv: 1 / cell}, pts: pts, cells: map[cellKey][]int32{}}
	for i := range pts {
		if k, ok := m.ix.keyOf(pts[i]); ok {
			m.cells[k] = append(m.cells[k], int32(i))
		}
	}
	return m
}

func (m *mapIndex) near(p Point, k int) []int32 {
	var out []int32
	c, ok := m.ix.keyOf(p)
	if !ok {
		return nil
	}
	for dy := int64(-k); dy <= int64(k); dy++ {
		for dx := int64(-k); dx <= int64(k); dx++ {
			out = append(out, m.cells[cellKey{X: c.X + dx, Y: c.Y + dy}]...)
		}
	}
	return out
}

func (m *mapIndex) nearestWithin(p Point, r float64) (int, bool) {
	if r < 0 {
		return 0, false
	}
	best, bestD2 := -1, r*r
	for _, i := range m.near(p, m.ix.Rings(r)) {
		d2 := m.pts[i].Dist2(p)
		if d2 > bestD2 {
			continue
		}
		if d2 < bestD2 || best == -1 || int(i) < best {
			best, bestD2 = int(i), d2
		}
	}
	return best, best >= 0
}

func (m *mapIndex) within(p Point, r float64) []int32 {
	var out []int32
	for _, i := range m.near(p, m.ix.Rings(r)) {
		if m.pts[i].Dist2(p) <= r*r {
			out = append(out, i)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func equalInt32s(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkAgainstMapIndex compares every query of ix with the map reference
// built over the same points, from each of the query points.
func checkAgainstMapIndex(t *testing.T, label string, ix *CellIndex, pts []Point, queries []Point, radii []float64) {
	t.Helper()
	ref := buildMapIndex(pts, ix.Cell())
	for _, q := range queries {
		for k := 0; k <= 3; k++ {
			if got, want := ix.Near(nil, q, k), ref.near(q, k); !equalInt32s(got, want) {
				t.Fatalf("%s: Near(%v, %d) = %v, map reference %v (order matters)", label, q, k, got, want)
			}
		}
		for _, r := range radii {
			if got, want := ix.Within(nil, q, r), ref.within(q, r); !equalInt32s(got, want) {
				t.Fatalf("%s: Within(%v, %v) = %v, map reference %v", label, q, r, got, want)
			}
			got, ok := ix.NearestWithin(q, r)
			want, wantOK := ref.nearestWithin(q, r)
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("%s: NearestWithin(%v, %v) = (%d, %v), map reference (%d, %v)", label, q, r, got, ok, want, wantOK)
			}
		}
	}
}

// TestCellIndexDenseMatchesMapReference is the dense layout's equivalence
// property: same points visited, in the same order within and across cells,
// as the hash-map index — on random clouds (negative coordinates, points
// exactly on cell edges, coincident points), on clouds sparse enough to
// coarsen the bucket table, and across Rebuilds whose bounding box shrinks,
// grows, moves and goes empty.
func TestCellIndexDenseMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cloud := func(n int, span float64) []Point {
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{X: (rng.Float64() - 0.5) * span, Y: (rng.Float64() - 0.5) * span}
			switch rng.Intn(6) {
			case 0: // exactly on a cell corner
				pts[i] = Point{X: math.Floor(pts[i].X/5) * 5, Y: math.Floor(pts[i].Y/5) * 5}
			case 1: // coincident with an earlier point
				if i > 0 {
					pts[i] = pts[rng.Intn(i)]
				}
			}
		}
		return pts
	}
	queriesFor := func(pts []Point, span float64) []Point {
		qs := []Point{{}, {X: span, Y: span}, {X: -span * 2, Y: span / 3}}
		for i := 0; i < 12; i++ {
			qs = append(qs, Point{X: (rng.Float64() - 0.5) * span * 1.2, Y: (rng.Float64() - 0.5) * span * 1.2})
		}
		for i := 0; i < len(pts) && i < 6; i++ {
			qs = append(qs, pts[rng.Intn(len(pts))])
		}
		return qs
	}
	radii := []float64{0, 2.5, 5, 7, 16}

	ix := BuildCellIndex(nil, 5)
	for step, c := range []struct {
		n    int
		span float64
	}{
		{120, 60},   // dense
		{8, 6},      // the box shrinks to a few cells
		{200, 400},  // grows
		{0, 0},      // goes empty
		{40, 30},    // and comes back
		{3, 1e7},    // three points 10^7 apart: coarsened
		{50, 20000}, // sparse: coarsened, many points per bucket
		{1, 10},
	} {
		pts := cloud(c.n, c.span)
		ix.Rebuild(pts)
		label := fmt.Sprintf("rebuild %d (n=%d span=%g shift=%d)", step, c.n, c.span, ix.shift)
		checkAgainstMapIndex(t, label, ix, pts, queriesFor(pts, c.span+1), radii)
		checkAgainstMapIndex(t, label+" fresh", BuildCellIndex(pts, 5), pts, queriesFor(pts, c.span+1), radii)
		if c.span >= 20000 && ix.shift == 0 {
			t.Errorf("%s: expected a coarsened table", label)
		}
	}
}

// TestCellIndexHostileCoordinates is the table for the non-finite rule and
// the memory bound: NaN, infinite and astronomically large coordinates are
// indexed nowhere and query nothing, the points around them are found as
// if the hostile ones were absent, and the table stays within its bound of
// the point count however far apart the finite points lie.
func TestCellIndexHostileCoordinates(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	sane := []Point{{X: 1, Y: 1}, {X: 2, Y: 2}, {X: 30, Y: 1}}
	for _, tc := range []struct {
		name    string
		hostile Point
		indexed bool // whether the hostile point itself has a cell
	}{
		{"NaN x", Point{X: nan, Y: 1}, false},
		{"NaN y", Point{X: 1, Y: nan}, false},
		{"+Inf", Point{X: inf, Y: 1}, false},
		{"-Inf", Point{X: 1, Y: -inf}, false},
		{"1e300", Point{X: 1e300, Y: 1}, false},
		{"-1e300", Point{X: 1, Y: -1e300}, false},
		{"just out of range", Point{X: 10 * maxCellCoord * 1.001, Y: 1}, false},
		{"just in range", Point{X: 10 * maxCellCoord * 0.999, Y: 1}, true},
		{"1e9", Point{X: 1e9, Y: -1e9}, true},
		{"1e15", Point{X: -1e15, Y: 1e15}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pts := append(append([]Point{}, sane...), tc.hostile)
			ix := BuildCellIndex(pts, 10)
			if ix.Len() != len(pts) {
				t.Fatalf("Len = %d, want %d", ix.Len(), len(pts))
			}
			if _, ok := ix.keyOf(tc.hostile); ok != tc.indexed {
				t.Fatalf("keyOf ok = %v, want %v", ok, tc.indexed)
			}
			// Memory: a fixed multiple of the point count.
			if limit := len(pts)*maxBucketsPerPoint + minBuckets; len(ix.start) > limit+1 || len(ix.items) > len(pts) {
				t.Fatalf("table holds %d buckets and %d items for %d points, bound %d", len(ix.start)-1, len(ix.items), len(pts), limit)
			}
			// The sane points answer as if the hostile one were not there.
			if got := ix.Within(nil, Point{X: 1.5, Y: 1.5}, 5); !equalInt32s(got, []int32{0, 1}) {
				t.Errorf("Within near the origin = %v, want [0 1]", got)
			}
			if got, ok := ix.NearestWithin(Point{X: 29, Y: 0}, 10); !ok || got != 2 {
				t.Errorf("NearestWithin = (%d, %v), want (2, true)", got, ok)
			}
			// A query from the hostile point finds itself iff it has a cell.
			got := ix.Within(nil, tc.hostile, 10)
			if want := tc.indexed; (len(got) == 1 && got[0] == 3) != want || (!want && len(got) != 0) {
				t.Errorf("Within from the hostile point = %v, indexed = %v", got, tc.indexed)
			}
			checkAgainstMapIndex(t, tc.name, ix, pts, append(pts, Point{}), []float64{0, 10, 25})
		})
	}

	// Hostile radii: defined, and bounded by the bounding box rather than by
	// the radius.
	ix := BuildCellIndex(sane, 10)
	if got := ix.Within(nil, Point{X: 1, Y: 1}, nan); len(got) != 0 {
		t.Errorf("Within(r=NaN) = %v, want nothing", got)
	}
	for _, r := range []float64{1e300, inf} {
		if got := ix.Within(nil, Point{X: 1, Y: 1}, r); !equalInt32s(got, []int32{0, 1, 2}) {
			t.Errorf("Within(r=%v) = %v, want every point", r, got)
		}
	}
}
