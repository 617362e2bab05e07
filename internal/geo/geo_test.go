package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Point{1, 1}, Point{1, 1}, 0},
		{"unit x", Point{0, 0}, Point{1, 0}, 1},
		{"unit y", Point{0, 0}, Point{0, 1}, 1},
		{"3-4-5", Point{0, 0}, Point{3, 4}, 5},
		{"negative coords", Point{-3, -4}, Point{0, 0}, 5},
		{"symmetric", Point{2, 7}, Point{-1, 3}, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Dist(tt.q); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Dist(%v, %v) = %v, want %v", tt.p, tt.q, got, tt.want)
			}
			if got := tt.q.Dist(tt.p); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Dist not symmetric: %v vs %v", got, tt.want)
			}
		})
	}
}

func TestDist2MatchesDist(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		// Constrain to a sane range to avoid overflow in the property.
		p := Point{math.Mod(ax, 1e6), math.Mod(ay, 1e6)}
		q := Point{math.Mod(bx, 1e6), math.Mod(by, 1e6)}
		d := p.Dist(q)
		return math.Abs(p.Dist2(q)-d*d) <= 1e-6*(1+d*d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a := Point{math.Mod(ax, 1e6), math.Mod(ay, 1e6)}
		b := Point{math.Mod(bx, 1e6), math.Mod(by, 1e6)}
		c := Point{math.Mod(cx, 1e6), math.Mod(cy, 1e6)}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWithin(t *testing.T) {
	p := Point{0, 0}
	if !p.Within(Point{3, 4}, 5) {
		t.Error("boundary point should be within (inclusive)")
	}
	if p.Within(Point{3, 4}, 4.999) {
		t.Error("point beyond radius reported within")
	}
}

func TestVector(t *testing.T) {
	v := Point{3, 4}.Sub(Point{0, 0})
	if got := v.Len(); got != 5 {
		t.Errorf("Len = %v, want 5", got)
	}
	u := v.Unit()
	if math.Abs(u.Len()-1) > 1e-12 {
		t.Errorf("Unit().Len() = %v, want 1", u.Len())
	}
	if z := (Vector{}).Unit(); z != (Vector{}) {
		t.Errorf("Unit of zero vector = %v, want zero", z)
	}
	if got := v.Scale(2).Len(); math.Abs(got-10) > 1e-12 {
		t.Errorf("Scale(2).Len() = %v, want 10", got)
	}
	if got := (Point{1, 1}).Add(Vector{2, 3}); got != (Point{3, 4}) {
		t.Errorf("Add = %v, want (3,4)", got)
	}
}

func TestRadiiValidate(t *testing.T) {
	tests := []struct {
		name    string
		r       Radii
		wantErr bool
	}{
		{"valid equal", Radii{R1: 1, R2: 1}, false},
		{"valid wider interference", Radii{R1: 1, R2: 2}, false},
		{"zero R1", Radii{R1: 0, R2: 1}, true},
		{"negative R1", Radii{R1: -1, R2: 1}, true},
		{"R2 below R1", Radii{R1: 2, R2: 1}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.r.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{Min: Point{0, 0}, Max: Point{10, 5}}
	if !r.Contains(Point{5, 2.5}) {
		t.Error("center should be contained")
	}
	if !r.Contains(Point{0, 0}) || !r.Contains(Point{10, 5}) {
		t.Error("corners should be contained (inclusive)")
	}
	if r.Contains(Point{-0.1, 2}) || r.Contains(Point{5, 5.1}) {
		t.Error("outside points reported contained")
	}
	if r.Width() != 10 || r.Height() != 5 {
		t.Errorf("Width/Height = %v/%v, want 10/5", r.Width(), r.Height())
	}
}

func TestGridLocations(t *testing.T) {
	g := Grid{Spacing: 10, Cols: 3, Rows: 2}
	locs := g.Locations()
	if len(locs) != 6 {
		t.Fatalf("len(Locations) = %d, want 6", len(locs))
	}
	want := []Point{{0, 0}, {10, 0}, {20, 0}, {0, 10}, {10, 10}, {20, 10}}
	for i, w := range want {
		if locs[i] != w {
			t.Errorf("Locations[%d] = %v, want %v", i, locs[i], w)
		}
	}
	b := g.Bounds()
	if b.Min != (Point{0, 0}) || b.Max != (Point{20, 10}) {
		t.Errorf("Bounds = %+v, want (0,0)-(20,10)", b)
	}
}

func TestGridBoundsDegenerate(t *testing.T) {
	g := Grid{Spacing: 5, Cols: 0, Rows: 0}
	b := g.Bounds()
	if b.Min != b.Max || b.Min != (Point{0, 0}) {
		t.Errorf("degenerate Bounds = %+v, want point at origin", b)
	}
	if len(g.Locations()) != 0 {
		t.Error("degenerate grid should have no locations")
	}
}
