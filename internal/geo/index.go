package geo

import (
	"fmt"
	"math"
)

// CellIndex is a uniform-grid spatial index over a fixed slice of points:
// the plane is partitioned into square cells of a given side length and
// each point is bucketed by the cell containing it. It answers "which
// points lie near p" by visiting only the cells around p's cell, turning
// the O(n) scan of a radius query into O(points in the nearby cells).
//
// Layout. The index is a pointer-free compressed-sparse-row table over the
// cell bounding box of the indexed points: bucket b holds
// items[start[b]:start[b+1]], point indices in increasing order, and a
// cell's bucket is found by subtracting the box origin and indexing — no
// hashing, nothing for the garbage collector to scan. Rebuild is a counting
// sort into the same arrays.
//
// Memory bound. The table never holds more than maxBucketsPerPoint buckets
// per indexed point (plus minBuckets), however far apart the points lie:
// when the bounding box has more cells than that, buckets cover
// 2^shift x 2^shift blocks of cells, shift being the smallest value that
// fits. Queries still visit exactly the points of the cells they name, in
// the same order — a widened bucket is filtered by each point's own cell —
// so coarsening costs time on a sparse index, never changes an answer.
//
// Non-finite rule. A point with a NaN or infinite coordinate, or one more
// than maxCellCoord cells from the origin (beyond which a float64 no longer
// resolves a single cell), is indexed nowhere, and a query from such a
// point visits nothing. That is what exact distance comparisons do with
// them: NaN and Inf distances are within no radius.
//
// The index is built once per round from that round's positions (building
// is O(n)) and is immutable afterwards, so concurrent queries are safe.
type CellIndex struct {
	pts  []Point
	cell float64
	inv  float64

	// Cell bounding box of the indexed points (empty when maxX < minX), and
	// the bucket table over it: cols x rows buckets of 2^shift cells a side.
	minX, minY, maxX, maxY int64
	shift                  uint
	cols, rows             int64
	start                  []int32
	items                  []int32
	bucket                 []int32 // Rebuild scratch: each point's bucket, -1 if unindexed
}

const (
	maxBucketsPerPoint = 32
	minBuckets         = 64
	// maxCellCoord bounds cell coordinates so that box extents and the
	// offsets queries add to them stay far from int64 overflow.
	maxCellCoord = 1 << 61
)

type cellKey struct {
	X, Y int64
}

// BuildCellIndex indexes pts into cells of side cellSize. It panics if
// cellSize is not positive; callers index against a physical radius which
// the model requires to be positive.
func BuildCellIndex(pts []Point, cellSize float64) *CellIndex {
	if cellSize <= 0 || math.IsNaN(cellSize) || math.IsInf(cellSize, 0) {
		panic(fmt.Sprintf("geo: BuildCellIndex cell size %v, must be positive and finite", cellSize))
	}
	ix := &CellIndex{cell: cellSize, inv: 1 / cellSize}
	ix.Rebuild(pts)
	return ix
}

// keyOf returns the cell containing p, and false if p is indexed nowhere
// (see the non-finite rule).
func (ix *CellIndex) keyOf(p Point) (cellKey, bool) {
	fx, fy := math.Floor(p.X*ix.inv), math.Floor(p.Y*ix.inv)
	// Written so that NaN fails the test.
	if !(fx >= -maxCellCoord && fx <= maxCellCoord && fy >= -maxCellCoord && fy <= maxCellCoord) {
		return cellKey{}, false
	}
	return cellKey{X: int64(fx), Y: int64(fy)}, true
}

// Rings returns the number of cell rings k that must be visited around a
// query point's cell so that every indexed point within distance r is
// covered: k = ceil(r / cell). A query radius equal to the cell size needs
// a single ring (the 3x3 block).
func (ix *CellIndex) Rings(r float64) int {
	k := math.Ceil(r * ix.inv)
	if !(k >= 1) { // r <= 0, or NaN
		return 0
	}
	return int(math.Min(k, math.MaxInt32))
}

// VisitNear calls fn with the index of every point bucketed in the
// (2k+1)x(2k+1) block of cells centered on p's cell. The visited set is a
// superset of the points within distance k*cell of p; callers filter by
// exact distance. Within one cell, indices are visited in increasing
// order; cells are visited row-major.
func (ix *CellIndex) VisitNear(p Point, k int, fn func(i int32)) {
	c, ok := ix.keyOf(p)
	if !ok {
		return
	}
	// Only cells inside the bounding box hold points.
	x0, x1 := max(c.X-int64(k), ix.minX), min(c.X+int64(k), ix.maxX)
	y0, y1 := max(c.Y-int64(k), ix.minY), min(c.Y+int64(k), ix.maxY)
	for y := y0; y <= y1; y++ {
		row := ((y - ix.minY) >> ix.shift) * ix.cols
		for x := x0; x <= x1; x++ {
			b := row + ((x - ix.minX) >> ix.shift)
			for _, i := range ix.items[ix.start[b]:ix.start[b+1]] {
				if ix.shift != 0 {
					if at, _ := ix.keyOf(ix.pts[i]); at.X != x || at.Y != y {
						continue
					}
				}
				fn(i)
			}
		}
	}
}

// Block is the part of the bucket table that holds a block of cells:
// buckets X0..X1 of rows Y0..Y1, none when X1 < X0 or Y1 < Y0 (see
// CellIndex.Block). It also keeps the cells, cx0..cx1 of rows cy0..cy1,
// for Holds.
type Block struct {
	X0, X1, Y0, Y1     int64
	cx0, cx1, cy0, cy1 int64
}

// noBlock is the empty block: no buckets and no cells.
var noBlock = Block{X1: -1, Y1: -1, cx1: -1, cy1: -1}

// Block returns the buckets that hold the (2k+1)x(2k+1) block of cells
// centered on p's cell, for a caller that walks the points itself — a loop
// of its own over Bucket(x, y), with no call per point — rather than
// through VisitNear. The buckets hold every point VisitNear visits, each
// once; those of a coarsened index (see the memory bound) also hold points
// of cells around the block, which Holds tells apart.
func (ix *CellIndex) Block(p Point, k int) Block {
	c, ok := ix.keyOf(p)
	if !ok {
		return noBlock
	}
	// Only cells inside the bounding box hold points.
	x0, x1 := max(c.X-int64(k), ix.minX), min(c.X+int64(k), ix.maxX)
	y0, y1 := max(c.Y-int64(k), ix.minY), min(c.Y+int64(k), ix.maxY)
	if x1 < x0 || y1 < y0 {
		return noBlock
	}
	return Block{
		X0: (x0 - ix.minX) >> ix.shift, X1: (x1 - ix.minX) >> ix.shift,
		Y0: (y0 - ix.minY) >> ix.shift, Y1: (y1 - ix.minY) >> ix.shift,
		cx0: x0, cx1: x1, cy0: y0, cy1: y1,
	}
}

// Bucket returns the indices of the points in bucket x of row y of the
// bucket table, one a Block names, in increasing order.
func (ix *CellIndex) Bucket(x, y int64) []int32 {
	b := y*ix.cols + x
	return ix.items[ix.start[b]:ix.start[b+1]]
}

// Holds reports whether point i, which one of b's buckets holds, lies in
// one of its cells: always, unless the index is coarsened.
func (ix *CellIndex) Holds(b *Block, i int32) bool {
	return ix.shift == 0 || ix.inCells(b, i)
}

// inCells is Holds on a coarsened index, kept out of Holds so that Holds
// inlines.
func (ix *CellIndex) inCells(b *Block, i int32) bool {
	c, _ := ix.keyOf(ix.pts[i])
	return c.X >= b.cx0 && c.X <= b.cx1 && c.Y >= b.cy0 && c.Y <= b.cy1
}

// Near appends to buf the indices of every point in the (2k+1)x(2k+1)
// block of cells centered on p's cell and returns the extended slice.
// Pass buf[:0] of a reused slice to avoid allocation on hot paths.
func (ix *CellIndex) Near(buf []int32, p Point, k int) []int32 {
	ix.VisitNear(p, k, func(i int32) { buf = append(buf, i) })
	return buf
}

// NearestWithin returns the index of the indexed point nearest to p among
// those within distance r of it (inclusive), and whether one exists. Exact
// distance ties break toward the lower index, independent of cell visiting
// order. Only the cell rings covering r are probed, so a query with r equal
// to the cell size costs a 3x3-cell probe regardless of how many points are
// indexed — this is the query behind vi.Deployment.RegionOf.
func (ix *CellIndex) NearestWithin(p Point, r float64) (int, bool) {
	if r < 0 {
		return 0, false
	}
	best := -1
	bestD2 := r * r
	ix.VisitNear(p, ix.Rings(r), func(i int32) {
		d2 := ix.pts[i].Dist2(p)
		if d2 > bestD2 {
			return
		}
		if d2 < bestD2 || best == -1 || int(i) < best {
			best = int(i)
			bestD2 = d2
		}
	})
	return best, best >= 0
}

// Rebuild re-indexes the index over pts, which replaces the previously
// indexed slice, keeping the cell size. It is a counting sort into the
// index's own arrays, which grow only when a rebuild needs more buckets or
// more points than any before it, so steady-state rebuilds allocate
// nothing.
func (ix *CellIndex) Rebuild(pts []Point) {
	ix.pts = pts
	if cap(ix.bucket) < len(pts) {
		ix.bucket = make([]int32, len(pts))
		ix.items = make([]int32, len(pts))
	}
	ix.bucket = ix.bucket[:len(pts)]

	// Pass 1: the cell bounding box of the indexable points.
	ix.minX, ix.minY = math.MaxInt64, math.MaxInt64
	ix.maxX, ix.maxY = math.MinInt64, math.MinInt64
	n := 0
	for i := range pts {
		c, ok := ix.keyOf(pts[i])
		if !ok {
			continue
		}
		n++
		ix.minX, ix.maxX = min(ix.minX, c.X), max(ix.maxX, c.X)
		ix.minY, ix.maxY = min(ix.minY, c.Y), max(ix.maxY, c.Y)
	}
	ix.shift, ix.cols, ix.rows = 0, 0, 0
	if n > 0 {
		// Extents are at most 2^62+1, so neither they nor — once each is
		// within the limit — their product can overflow; bucket numbers
		// are int32.
		limit := min(int64(n)*maxBucketsPerPoint+minBuckets, math.MaxInt32)
		for ; ; ix.shift++ {
			ix.cols = (ix.maxX-ix.minX)>>ix.shift + 1
			ix.rows = (ix.maxY-ix.minY)>>ix.shift + 1
			if ix.cols <= limit && ix.rows <= limit && ix.cols*ix.rows <= limit {
				break
			}
		}
	}
	buckets := int(ix.cols * ix.rows)
	if cap(ix.start) < buckets+1 {
		ix.start = make([]int32, buckets+1)
	}
	ix.start = ix.start[:buckets+1]
	clear(ix.start)

	// Pass 2: count per bucket (into start[b+1]), then prefix-sum so
	// start[b] is where bucket b begins.
	for i := range pts {
		c, ok := ix.keyOf(pts[i])
		if !ok {
			ix.bucket[i] = -1
			continue
		}
		b := int32(((c.Y-ix.minY)>>ix.shift)*ix.cols + ((c.X - ix.minX) >> ix.shift))
		ix.bucket[i] = b
		ix.start[b+1]++
	}
	for b := 0; b < buckets; b++ {
		ix.start[b+1] += ix.start[b]
	}
	ix.items = ix.items[:n]

	// Pass 3: place points in index order, advancing start[b] as a write
	// cursor; afterwards start[b] is the end of bucket b, i.e. the start of
	// b+1, so one shift right restores the table.
	for i, b := range ix.bucket {
		if b >= 0 {
			ix.items[ix.start[b]] = int32(i)
			ix.start[b]++
		}
	}
	copy(ix.start[1:], ix.start[:buckets])
	ix.start[0] = 0
}
