package shard

import (
	"testing"

	"vinfra/internal/geo"
)

func TestSplit(t *testing.T) {
	cases := []struct{ n, cols, rows int }{
		{0, 1, 1}, {1, 1, 1}, {2, 2, 1}, {3, 3, 1}, {4, 2, 2},
		{6, 3, 2}, {8, 4, 2}, {9, 3, 3}, {12, 4, 3}, {16, 4, 4},
		{7, 7, 1}, {10, 5, 2},
	}
	for _, c := range cases {
		cols, rows := Split(c.n)
		if cols != c.cols || rows != c.rows {
			t.Errorf("Split(%d) = %dx%d, want %dx%d", c.n, cols, rows, c.cols, c.rows)
		}
		if c.n >= 1 && cols*rows != c.n {
			t.Errorf("Split(%d): %dx%d does not multiply back", c.n, cols, rows)
		}
	}
}

func TestNewPlanValidation(t *testing.T) {
	if _, err := NewPlan(0, 2, 2); err == nil {
		t.Error("NewPlan(0, 2, 2) accepted a zero cell size")
	}
	if _, err := NewPlan(-5, 2, 2); err == nil {
		t.Error("NewPlan(-5, 2, 2) accepted a negative cell size")
	}
	if _, err := NewPlan(10, 0, 2); err == nil {
		t.Error("NewPlan(10, 0, 2) accepted zero columns")
	}
	if _, err := NewPlan(10, 2, 0); err == nil {
		t.Error("NewPlan(10, 2, 0) accepted zero rows")
	}
	if p := MustPlan(10, 3, 2); p.Shards() != 6 || p.Cols() != 3 || p.rows != 2 {
		t.Errorf("MustPlan(10, 3, 2) = %dx%d (%d shards)", p.Cols(), p.rows, p.Shards())
	}
}

func TestCellOfMatchesFloorBuckets(t *testing.T) {
	p := MustPlan(20, 2, 2)
	cases := []struct {
		pt     geo.Point
		cx, cy int64
	}{
		{geo.Point{X: 0, Y: 0}, 0, 0},
		{geo.Point{X: 19.999, Y: 0.5}, 0, 0},
		{geo.Point{X: 20, Y: 20}, 1, 1},
		{geo.Point{X: -0.5, Y: -20}, -1, -1},
		{geo.Point{X: -20.5, Y: 39.9}, -2, 1},
	}
	for _, c := range cases {
		cx, cy := p.CellOf(c.pt)
		if cx != c.cx || cy != c.cy {
			t.Errorf("CellOf(%v) = (%d, %d), want (%d, %d)", c.pt, cx, cy, c.cx, c.cy)
		}
	}
}

// TestOwnerCoversAndClamps pins the fitted split: every cell in the box has
// exactly one owner, shard rectangles are contiguous in row-major order,
// and out-of-box cells clamp to edge shards.
func TestOwnerCoversAndClamps(t *testing.T) {
	p := MustPlan(10, 2, 2)
	// A 5x3 cell box split 2x2: spans ceil(5/2)=3 and ceil(3/2)=2.
	p.Fit(0, 0, 4, 2)
	wantCol := []int{0, 0, 0, 1, 1}
	wantRow := []int{0, 0, 1}
	for cy := int64(0); cy <= 2; cy++ {
		for cx := int64(0); cx <= 4; cx++ {
			want := wantRow[cy]*2 + wantCol[cx]
			if got := p.Owner(cx, cy); got != want {
				t.Errorf("Owner(%d, %d) = %d, want %d", cx, cy, got, want)
			}
		}
	}
	// Clamping: far outside the box on every side.
	if got := p.Owner(-100, -100); got != 0 {
		t.Errorf("Owner(-100, -100) = %d, want 0", got)
	}
	if got := p.Owner(100, 100); got != 3 {
		t.Errorf("Owner(100, 100) = %d, want 3", got)
	}
	if got := p.Owner(100, -100); got != 1 {
		t.Errorf("Owner(100, -100) = %d, want 1", got)
	}
}

// TestHaloSpanIntersectsNeighborBlock checks HaloSpan against a brute-force
// owner scan of the 3x3 cell block, over boxes that exercise spans of one
// cell (3x3 halo) and multiple cells (2x2 halo), including negative bounds.
func TestHaloSpanIntersectsNeighborBlock(t *testing.T) {
	boxes := []struct{ minX, minY, maxX, maxY int64 }{
		{0, 0, 11, 7},
		{-5, -9, 3, 2},
		{0, 0, 2, 2}, // one-cell spans: a halo can touch 3x3 shards
		{4, 4, 4, 4}, // degenerate single-cell box
	}
	for _, cols := range []int{1, 2, 3} {
		for _, rows := range []int{1, 2, 3} {
			p := MustPlan(5, cols, rows)
			for _, b := range boxes {
				p.Fit(b.minX, b.minY, b.maxX, b.maxY)
				for cy := b.minY - 1; cy <= b.maxY+1; cy++ {
					for cx := b.minX - 1; cx <= b.maxX+1; cx++ {
						c0, c1, r0, r1 := p.HaloSpan(cx, cy)
						if c0 > c1 || r0 > r1 {
							t.Fatalf("%dx%d box %+v: HaloSpan(%d, %d) empty: %d..%d x %d..%d",
								cols, rows, b, cx, cy, c0, c1, r0, r1)
						}
						// Brute force: the shard set owning the 3x3 block.
						seen := map[int]bool{}
						for dy := int64(-1); dy <= 1; dy++ {
							for dx := int64(-1); dx <= 1; dx++ {
								seen[p.Owner(cx+dx, cy+dy)] = true
							}
						}
						var got []int
						for sr := r0; sr <= r1; sr++ {
							for sc := c0; sc <= c1; sc++ {
								got = append(got, sr*cols+sc)
							}
						}
						for _, s := range got {
							if !seen[s] {
								t.Fatalf("%dx%d box %+v: HaloSpan(%d, %d) includes shard %d not touched by the 3x3 block",
									cols, rows, b, cx, cy, s)
							}
						}
						for s := range seen {
							found := false
							for _, g := range got {
								if g == s {
									found = true
									break
								}
							}
							if !found {
								t.Fatalf("%dx%d box %+v: HaloSpan(%d, %d) = %v misses shard %d owning part of the 3x3 block",
									cols, rows, b, cx, cy, got, s)
							}
						}
					}
				}
			}
		}
	}
}

// TestFitEmptyKeepsSpansPositive guards the invariant the engine relies on:
// even before any Fit (or after a degenerate one) spans stay >= 1 so Owner
// never divides by zero.
func TestFitEmptyKeepsSpansPositive(t *testing.T) {
	p := MustPlan(10, 4, 4)
	_ = p.Owner(3, -7) // must not panic pre-Fit
	p.Fit(5, 5, 3, 2)  // inverted box (empty population): spans clamp to 1
	if got := p.Owner(5, 5); got < 0 || got >= p.Shards() {
		t.Errorf("Owner after inverted Fit = %d, out of range", got)
	}
}
