package vi_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"vinfra/internal/geo"
	"vinfra/internal/vi"
)

// noopProgram is the minimal Program for deployments whose schedule and
// emulators are never exercised.
type noopProgram struct{}

func (noopProgram) Init(vi.VNodeID, geo.Point) []byte                   { return nil }
func (noopProgram) OnRound(state []byte, _ int, _ vi.RoundInput) []byte { return state }
func (noopProgram) Outgoing([]byte, int) *vi.Message                    { return nil }

// TestRegionOfMatchesLinearScan pins the cell-indexed RegionOf to a linear
// scan applying the documented rule (nearest location within R1/4, exact
// ties toward the lower VNodeID) over random deployments, radii and query
// points — including points far outside every region.
func TestRegionOfMatchesLinearScan(t *testing.T) {
	f := func(seed uint32, nRaw, rRaw uint8) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := int(nRaw%40) + 1
		radii := geo.Radii{R1: 1 + float64(rRaw%20)}
		radii.R2 = radii.R1 * 2
		locs := make([]geo.Point, n)
		for i := range locs {
			locs[i] = geo.Point{X: rng.Float64()*80 - 40, Y: rng.Float64()*80 - 40}
		}
		dep, err := vi.NewDeployment(vi.DeploymentConfig{
			Locations: locs,
			Radii:     radii,
			Program:   func(vi.VNodeID, vi.Schedule) vi.Program { return noopProgram{} },
		})
		if err != nil {
			t.Fatal(err)
		}
		rr := dep.RegionRadius()
		for trial := 0; trial < 8; trial++ {
			p := geo.Point{X: rng.Float64()*100 - 50, Y: rng.Float64()*100 - 50}
			want := vi.None
			bestD2 := rr * rr
			for i := range locs {
				if d2 := locs[i].Dist2(p); d2 <= bestD2 && (want == vi.None || d2 < bestD2) {
					want = vi.VNodeID(i)
					bestD2 = d2
				}
			}
			if got := dep.RegionOf(p); got != want {
				t.Logf("seed=%d n=%d p=%v: RegionOf=%d scan=%d", seed, n, p, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestRegionOfCoincidentLocations pins the tie rule where two virtual nodes
// share a location: the lower VNodeID owns the point.
func TestRegionOfCoincidentLocations(t *testing.T) {
	locs := []geo.Point{{X: 0}, {X: 0}, {X: 50}}
	dep, err := vi.NewDeployment(vi.DeploymentConfig{
		Locations: locs,
		Radii:     testRadii,
		Program:   func(vi.VNodeID, vi.Schedule) vi.Program { return noopProgram{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := dep.RegionOf(geo.Point{X: 0.1}); got != 0 {
		t.Errorf("RegionOf over coincident locations = %d, want 0", got)
	}
}

// benchDeployment builds an n-vnode grid deployment for the RegionOf
// benchmarks, returning it with the grid's side length so queries can be
// spread over the deployed area.
func benchDeployment(b *testing.B, n int) (*vi.Deployment, float64) {
	b.Helper()
	cols := 1
	for cols*cols < n {
		cols++
	}
	// The experiments' spacing: regions (radius R1/4 = 2.5) cover ~54% of
	// the area, so benchmark queries exercise the hit path, near misses
	// and empty cells alike.
	const spacing = 6
	locs := geo.Grid{Spacing: spacing, Cols: cols, Rows: (n + cols - 1) / cols}.Locations()[:n]
	dep, err := vi.NewDeployment(vi.DeploymentConfig{
		Locations: locs,
		Radii:     testRadii,
		Program:   func(vi.VNodeID, vi.Schedule) vi.Program { return noopProgram{} },
	})
	if err != nil {
		b.Fatal(err)
	}
	return dep, spacing * float64(cols)
}

// The RegionOf set below is the O(V) -> O(1) evidence: per-query cost must
// stay flat from 100 to 10k virtual nodes now that the lookup is a 3x3-cell
// probe of the deployment's location index. Queries are spread over the
// deployed area (span tracks the grid side, not the vnode count), so the
// mix of region hits, near misses and empty-cell misses is the same at
// every size — the hit path is exercised, not just the miss path.
func benchRegionOf(b *testing.B, n int) {
	dep, span := benchDeployment(b, n)
	rng := rand.New(rand.NewSource(1))
	pts := make([]geo.Point, 1024)
	hits := 0
	for i := range pts {
		pts[i] = geo.Point{X: rng.Float64() * span, Y: rng.Float64() * span}
		if dep.RegionOf(pts[i]) != vi.None {
			hits++
		}
	}
	b.ReportMetric(float64(hits)/float64(len(pts)), "hit-frac")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dep.RegionOf(pts[i%len(pts)])
	}
}

func BenchmarkRegionOf100(b *testing.B) { benchRegionOf(b, 100) }
func BenchmarkRegionOf1k(b *testing.B)  { benchRegionOf(b, 1_000) }
func BenchmarkRegionOf10k(b *testing.B) { benchRegionOf(b, 10_000) }
