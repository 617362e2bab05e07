// Package geo provides the planar geometry underlying the quasi-unit-disk
// communication model of Chockler, Gilbert and Lynch (PODC 2008), Section 2:
// points in the plane, distances, disks of broadcast radius R1 and
// interference radius R2, and the regular grids on which virtual nodes are
// deployed.
package geo

import (
	"fmt"
	"math"
	"sort"
)

// Point is a location in the plane. The zero value is the origin.
type Point struct {
	X, Y float64
}

// String renders the point as "(x, y)" with two decimals.
func (p Point) String() string {
	return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y)
}

// Add returns p translated by v.
func (p Point) Add(v Vector) Point {
	return Point{X: p.X + v.DX, Y: p.Y + v.DY}
}

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Vector {
	return Vector{DX: p.X - q.X, DY: p.Y - q.Y}
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root for distance comparisons on the hot path of the radio
// medium.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Within reports whether q lies within distance r of p (inclusive).
func (p Point) Within(q Point, r float64) bool {
	return p.Dist2(q) <= r*r
}

// Vector is a displacement in the plane.
type Vector struct {
	DX, DY float64
}

// Len returns the Euclidean length of v.
func (v Vector) Len() float64 {
	return math.Hypot(v.DX, v.DY)
}

// Scale returns v scaled by f.
func (v Vector) Scale(f float64) Vector {
	return Vector{DX: v.DX * f, DY: v.DY * f}
}

// Unit returns the unit vector in the direction of v. The unit vector of the
// zero vector is the zero vector.
func (v Vector) Unit() Vector {
	l := v.Len()
	if l == 0 {
		return Vector{}
	}
	return v.Scale(1 / l)
}

// Radii bundles the two radii of the quasi-unit-disk model: two nodes within
// R1 of each other can communicate; two nodes within R2 interfere. The model
// requires R1 <= R2.
type Radii struct {
	R1 float64 // broadcast radius
	R2 float64 // interference radius
}

// Validate reports whether the radii are well formed (0 < R1 <= R2).
func (r Radii) Validate() error {
	if r.R1 <= 0 {
		return fmt.Errorf("geo: broadcast radius R1 = %v, must be positive", r.R1)
	}
	if r.R2 < r.R1 {
		return fmt.Errorf("geo: interference radius R2 = %v < broadcast radius R1 = %v", r.R2, r.R1)
	}
	return nil
}

// Rect is an axis-aligned rectangle, used to bound deployment areas.
type Rect struct {
	Min, Max Point
}

// Contains reports whether p lies inside the rectangle (inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Width returns the horizontal extent of the rectangle.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of the rectangle.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Grid describes a regular square grid of virtual-node locations with the
// given spacing, anchored at (0, 0), with Cols x Rows cells. Virtual
// infrastructure deployments in the paper place virtual nodes "at regular
// locations throughout the world"; Grid is that deployment.
type Grid struct {
	Spacing float64
	Cols    int
	Rows    int
}

// Locations returns the grid points in row-major order.
func (g Grid) Locations() []Point {
	pts := make([]Point, 0, g.Cols*g.Rows)
	for row := 0; row < g.Rows; row++ {
		for col := 0; col < g.Cols; col++ {
			pts = append(pts, Point{
				X: float64(col) * g.Spacing,
				Y: float64(row) * g.Spacing,
			})
		}
	}
	return pts
}

// Bounds returns the smallest rectangle containing every grid location.
func (g Grid) Bounds() Rect {
	if g.Cols <= 0 || g.Rows <= 0 {
		return Rect{}
	}
	return Rect{Max: Point{X: float64(g.Cols-1) * g.Spacing, Y: float64(g.Rows-1) * g.Spacing}}
}

// NeighborGraph returns, for each location index, the indexes of the other
// locations within threshold distance, in increasing index order. It is
// used to build non-conflicting virtual-node schedules (Section 4.1),
// where the conflict threshold is R1 + 2*R2.
//
// The graph is built through a CellIndex with cell size equal to the
// threshold, so construction is O(n * k) in the neighbor count k rather
// than O(n^2).
func NeighborGraph(locs []Point, threshold float64) [][]int {
	adj := make([][]int, len(locs))
	if len(locs) == 0 {
		return adj
	}
	t2 := threshold * threshold
	if threshold <= 0 {
		// Degenerate threshold: only coincident points are neighbors.
		for i := range locs {
			for j := i + 1; j < len(locs); j++ {
				if locs[i].Dist2(locs[j]) <= t2 {
					adj[i] = append(adj[i], j)
					adj[j] = append(adj[j], i)
				}
			}
		}
		return adj
	}
	ix := BuildCellIndex(locs, threshold)
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
