package spec

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"vinfra/internal/cd"
	"vinfra/internal/checkpoint"
	"vinfra/internal/cm"
	"vinfra/internal/geo"
	"vinfra/internal/radio"
	"vinfra/internal/sim"
	"vinfra/internal/vi"
	"vinfra/internal/wire"
)

// regionalDoc parses examples/regional.json: a 5x5 counter grid at spacing
// 6 (r1 10, r2 20, vmax 0.02), 3 replicas and a pinger per region, seed 1,
// 300 virtual rounds, leaders elected by the regional contention manager.
func regionalDoc(t *testing.T) Spec {
	t.Helper()
	b, err := os.ReadFile("../../examples/regional.json")
	if err != nil {
		t.Fatal(err)
	}
	s, err := Parse(b)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.Leader != "regional" {
		t.Fatalf("examples/regional.json runs leader %q", s.Leader)
	}
	return s
}

// tally is what the counted world's managers report: the ballots won per
// region in the current virtual round, and every manager built.
type tally struct {
	wins []int
	mgrs []*countingCM
}

// countingCM wraps the deployment's default regional manager and counts the
// ballots it wins. It delegates everything else, its snapshot blob
// included, so a world built with it is the same world.
type countingCM struct {
	*cm.Regional
	v vi.VNodeID
	t *tally
}

func (c *countingCM) Observe(fb cm.Feedback) {
	if fb == cm.FeedbackWon {
		c.t.wins[c.v]++
	}
	c.Regional.Observe(fb)
}

// countedWorld builds s's world as Build does, with every regional manager
// wrapped in a countingCM reporting to tl.
func countedWorld(t *testing.T, s Spec, tl *tally) *World {
	t.Helper()
	locs := geo.Grid{Spacing: s.Grid.Spacing, Cols: s.Grid.Cols, Rows: s.Grid.Rows}.Locations()
	radii := geo.Radii{R1: s.Radii.R1, R2: s.Radii.R2}
	tl.wins = make([]int, len(locs))
	var dep *vi.Deployment
	dep, err := vi.NewDeployment(vi.DeploymentConfig{
		Locations: locs,
		Radii:     radii,
		VMax:      s.Devices.VMax,
		Program:   counterProgram,
		NewCM: func(v vi.VNodeID, env sim.Env) cm.Manager {
			m := &countingCM{Regional: cm.NewRegional(locs[v], dep.LeaderMargin())(env).(*cm.Regional), v: v, t: tl}
			tl.mgrs = append(tl.mgrs, m)
			return m
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	medium := radio.MustMedium(radio.Config{Radii: radii, Detector: cd.AC{}, Seed: s.Seed})
	w := &World{
		Spec:   s,
		Eng:    sim.NewEngine(medium, sim.WithSeed(s.Seed)),
		Dep:    dep,
		Mon:    vi.NewMonitor(),
		Medium: medium,
		Locs:   locs,
		per:    dep.Timing().RoundsPerVRound(),
	}
	w.attachBootstrap(vi.EmulatorHooks{})
	return w
}

// TestRegionalLeadersCounted counts Property 3 instead of inferring it from
// availability: on the regional document at several grids and spacings,
// every ballot's winners per region (replicas whose manager was fed
// FeedbackWon), every virtual round's availability and each region's
// eligible replicas. After a 50-vround election, exactly one replica must
// win in at least 99 % of a region's ballots and the mean availability must
// be at least 0.95; a grid whose leader margin cannot hold a bootstrap
// replica is refused by Build. The counted world is checked byte for byte
// against Build's, so what is counted is the document's run.
func TestRegionalLeadersCounted(t *testing.T) {
	const settle = 50
	for _, tc := range []struct {
		n       int
		spacing float64
		refused bool
	}{
		{3, 6, false},
		{5, 6, false},
		{7, 9, false},
		{7, 12, false},
		{7, 18, false},
		{7, 25, false},
		{7, 6, true}, // s = 47: margin 0.22, the nearest replica sits 0.224 out
	} {
		t.Run(fmt.Sprintf("%dx%d@%g", tc.n, tc.n, tc.spacing), func(t *testing.T) {
			s := regionalDoc(t)
			s.Grid = Grid{Cols: tc.n, Rows: tc.n, Spacing: tc.spacing}
			ref, err := Build(s)
			if tc.refused {
				if err == nil || !strings.Contains(err.Error(), "margin") {
					t.Fatalf("Build: err %v, want a refusal that names the margin", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			defer ref.Eng.Close()

			var tl tally
			w := countedWorld(t, s, &tl)
			defer w.Eng.Close()
			vnodes := len(w.Locs)
			// One ballot per region per virtual round: instance vr's.
			one, green, ballots := 0, 0, 0
			minEligible, maxEligible := len(tl.mgrs), 0
			prevGreen, eligible := make([]int, vnodes), make([]int, vnodes)
			for vr := 1; vr <= s.VRounds; vr++ {
				w.StepVRound()
				clear(eligible)
				for _, m := range tl.mgrs {
					if m.Eligible() {
						eligible[m.v]++
					}
				}
				minEligible = min(minEligible, slices.Min(eligible))
				maxEligible = max(maxEligible, slices.Max(eligible))
				for v := range tl.wins {
					g := w.Mon.ReportThrough(vi.VNodeID(v), vr).Green
					if vr > settle {
						ballots++
						green += g - prevGreen[v]
						if tl.wins[v] == 1 {
							one++
						}
					}
					prevGreen[v], tl.wins[v] = g, 0
				}
			}
			run(t, ref, s.VRounds)
			if !bytes.Equal(w.Checkpoint().Encode(), ref.Checkpoint().Encode()) {
				t.Fatal("the counted world's checkpoint differs from Build's world")
			}

			share, avail := float64(one)/float64(ballots), float64(green)/float64(ballots)
			t.Logf("s=%d margin=%.3f eligible/region min %d max %d; after vround %d: one winner in %.3f of ballots, availability %.3f (whole run %.2f)",
				w.Dep.Timing().S, w.Dep.LeaderMargin(), minEligible, maxEligible, settle, share, avail, w.Summary().MeanAvailability)
			if minEligible < 1 {
				t.Errorf("a region had no eligible replica in some virtual round")
			}
			if share < 0.99 {
				t.Errorf("exactly one winner per region in %.3f of ballots after vround %d, want >= 0.99", share, settle)
			}
			if avail < 0.95 {
				t.Errorf("mean availability %.3f after vround %d, want >= 0.95", avail, settle)
			}
		})
	}
}

// TestRegionalWorldDeterministic is the determinism contract for a
// multi-region regional world: examples/regional.json's checkpoint digest
// after every virtual round is the same run sequential, parallel, sharded
// 2x2, and checkpointed at vround 137 then restored on a rebuilt world (the
// sharded engine's plan and halo count zeroed, the only fields in which it
// may differ).
func TestRegionalWorldDeterministic(t *testing.T) {
	const cut = 137
	digests := func(w *World, from int) []uint64 {
		defer w.Eng.Close()
		var ds []uint64
		for vr := from; vr < w.VRounds(); vr++ {
			w.StepVRound()
			cp := w.Checkpoint()
			cp.Engine.ShardCols, cp.Engine.ShardRows = 0, 0
			cp.Engine.Stats.HaloTransmissions = 0
			ds = append(ds, uint64(wire.DigestOf(cp.Encode())))
		}
		return ds
	}
	build := func(s Spec) *World {
		w, err := Build(s)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		return w
	}
	s := regionalDoc(t)
	want := digests(build(s), 0)

	par, shd := s, s
	par.Engine.Parallel = true
	shd.Engine.Shards = 4
	for name, ds := range map[string][]uint64{
		"parallel":   digests(build(par), 0),
		"sharded2x2": digests(build(shd), 0),
	} {
		for i := range want {
			if ds[i] != want[i] {
				t.Fatalf("%s: vround %d digest %x, sequential %x", name, i+1, ds[i], want[i])
			}
		}
	}

	half := build(s)
	run(t, half, cut)
	cp, err := checkpoint.Decode(half.Checkpoint().Encode())
	half.Eng.Close()
	if err != nil {
		t.Fatalf("checkpoint round trip: %v", err)
	}
	resumed := build(s)
	if err := resumed.Restore(cp); err != nil {
		t.Fatalf("Restore at vround %d: %v", cut, err)
	}
	for i, d := range digests(resumed, cut) {
		if d != want[cut+i] {
			t.Fatalf("restored at vround %d: vround %d digest %x, uninterrupted %x", cut, cut+i+1, d, want[cut+i])
		}
	}
}
