// Package shard is the partition plane behind the region-sharded
// simulation engine: pure integer arithmetic mapping positions to cells,
// cells to owning shards, and transmissions to the set of shards whose
// boundary band they land in. It holds no node state and draws no
// randomness — given the same cell bounds it always produces the same
// partition, which is what lets the sharded engine stay byte-identical to
// the sequential one (the determinism contract of internal/det).
//
// Geometry: the world is cut into uniform cells of side cellSize (the
// engine uses the interference radius R2, matching geo.CellIndex), and the
// occupied cell bounding box is split into a Cols x Rows grid of shard
// rectangles. Because a cell is at least R2 wide, everything within R2 of
// a point in cell (cx, cy) lies inside the 3x3 cell block around it — so a
// transmission is relevant to a shard exactly when that block intersects
// the shard's rectangle. HaloSpan returns that shard range; a transmission
// whose span covers more than its owner is a boundary-band transmission
// copied to the neighbors at the round edge.
package shard

import (
	"fmt"
	"math"

	"vinfra/internal/geo"
)

// Plan is one round's partition: a fixed shard grid plus the cell bounding
// box fitted to the current population by Fit. The zero value is unusable;
// construct with NewPlan. A Plan is not safe for concurrent mutation (Fit),
// but all read methods are pure and safe to call from shard workers.
type Plan struct {
	inv  float64 // 1/cell side; the side is >= the medium's interference radius
	cols int
	rows int

	// Fitted bounds (inclusive, cell coordinates) and the per-shard spans
	// derived from them. Valid after Fit; Fit with an empty population
	// keeps the previous bounds, which is harmless because nothing is
	// partitioned then.
	minCX, minCY int64
	spanX, spanY int64
}

// NewPlan returns a plan cutting the world into cols x rows shard
// rectangles over cells of side cellSize.
func NewPlan(cellSize float64, cols, rows int) (*Plan, error) {
	if !(cellSize > 0) || math.IsInf(cellSize, 0) {
		return nil, fmt.Errorf("shard: cell size %v must be a positive finite number", cellSize)
	}
	if cols < 1 || rows < 1 {
		return nil, fmt.Errorf("shard: grid %dx%d must have at least one shard per axis", cols, rows)
	}
	return &Plan{
		inv:   1 / cellSize,
		cols:  cols,
		rows:  rows,
		spanX: 1,
		spanY: 1,
	}, nil
}

// MustPlan is NewPlan, panicking on error.
func MustPlan(cellSize float64, cols, rows int) *Plan {
	p, err := NewPlan(cellSize, cols, rows)
	if err != nil {
		panic(err)
	}
	return p
}

// Shards returns the number of shard rectangles: the shard grid's width
// times its height.
func (p *Plan) Shards() int { return p.cols * p.rows }

// Cols returns the shard-grid width.
func (p *Plan) Cols() int { return p.cols }

// CellOf maps a position to its cell coordinates — the same floor bucketing
// geo.CellIndex uses, so a medium's grid and the shard partition agree on
// which cell a node is in.
func (p *Plan) CellOf(pt geo.Point) (cx, cy int64) {
	return int64(math.Floor(pt.X * p.inv)), int64(math.Floor(pt.Y * p.inv))
}

// Fit resizes the shard rectangles to the inclusive cell bounding box
// [minCX, maxCX] x [minCY, maxCY] of the current population. Every shard
// rectangle gets a ceil(extent/shards)-cell span (at least one cell), so
// the grid always covers the box and the split depends only on the box —
// not on iteration order or node count.
func (p *Plan) Fit(minCX, minCY, maxCX, maxCY int64) {
	p.minCX, p.minCY = minCX, minCY
	p.spanX = ceilDiv(maxCX-minCX+1, int64(p.cols))
	p.spanY = ceilDiv(maxCY-minCY+1, int64(p.rows))
}

func ceilDiv(n, d int64) int64 {
	if n < 1 {
		return 1
	}
	s := (n + d - 1) / d
	if s < 1 {
		return 1
	}
	return s
}

// Owner returns the shard index owning cell (cx, cy), clamped into the
// fitted grid (positions outside the fitted box belong to the nearest edge
// shard, so every node always has exactly one owner).
func (p *Plan) Owner(cx, cy int64) int {
	return p.shardRow(cy)*p.cols + p.shardCol(cx)
}

// OwnerOf is Owner applied to a position.
func (p *Plan) OwnerOf(pt geo.Point) int {
	cx, cy := p.CellOf(pt)
	return p.Owner(cx, cy)
}

func (p *Plan) shardCol(cx int64) int {
	return clamp(int((cx-p.minCX)/p.spanX), p.cols)
}

func (p *Plan) shardRow(cy int64) int {
	return clamp(int((cy-p.minCY)/p.spanY), p.rows)
}

// clamp bounds a raw shard coordinate into [0, n). Cells left of the fitted
// box produce a negative (or truncated-toward-zero) quotient and clamp to
// 0; cells beyond it clamp to the last shard.
func clamp(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// HaloSpan returns the inclusive shard-grid range [c0, c1] x [r0, r1]
// whose rectangles intersect the 3x3 cell block centered on (cx, cy) — the
// shards a transmission from that cell can reach, since a cell side is at
// least the interference radius. The span covers at most 2x2 shards when
// shard rectangles are wider than one cell, and up to 3x3 in the
// degenerate one-cell-wide case.
func (p *Plan) HaloSpan(cx, cy int64) (c0, c1, r0, r1 int) {
	c0 = p.shardCol(cx - 1)
	c1 = p.shardCol(cx + 1)
	r0 = p.shardRow(cy - 1)
	r1 = p.shardRow(cy + 1)
	return c0, c1, r0, r1
}

// Split factors a shard count into a near-square cols x rows grid
// (cols >= rows, cols*rows == n): 1 -> 1x1, 2 -> 2x1, 4 -> 2x2, 6 -> 3x2,
// 8 -> 4x2, 9 -> 3x3. Prime counts degrade to n x 1.
func Split(n int) (cols, rows int) {
	if n < 1 {
		return 1, 1
	}
	for rows = int(math.Sqrt(float64(n))); rows > 1; rows-- {
		if n%rows == 0 {
			break
		}
	}
	if rows < 1 {
		rows = 1
	}
	return n / rows, rows
}
