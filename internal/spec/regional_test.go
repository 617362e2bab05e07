package spec

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"vinfra/internal/cd"
	"vinfra/internal/cha"
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

// tally is what the counted world reports: per region in the current
// virtual round, the ballots won, the ballots that ended in a detected
// collision, and the best color any replica output (0 when none output);
// and every manager built.
type tally struct {
	wins, collided []int
	best           []cha.Color
	mgrs           []*countingCM
}

// countingCM wraps the deployment's default regional manager and counts the
// ballots it wins and the ones it saw collide. It delegates everything
// else, its snapshot blob included, so a world built with it is the same
// world.
type countingCM struct {
	*cm.Regional
	v vi.VNodeID
	t *tally
}

func (c *countingCM) Observe(fb cm.Feedback) {
	switch fb {
	case cm.FeedbackWon:
		c.t.wins[c.v]++
	case cm.FeedbackCollision:
		c.t.collided[c.v]++
	}
	c.Regional.Observe(fb)
}

// countedWorld builds s's world as Build does, with every regional manager
// wrapped in a countingCM reporting to tl and every replica output also
// noted in tl.best. It runs the sequential engine, so the tally needs no
// lock.
func countedWorld(t *testing.T, s Spec, tl *tally) *World {
	t.Helper()
	locs := geo.Grid{Spacing: s.Grid.Spacing, Cols: s.Grid.Cols, Rows: s.Grid.Rows}.Locations()
	radii := geo.Radii{R1: s.Radii.R1, R2: s.Radii.R2}
	tl.wins, tl.collided, tl.best = make([]int, len(locs)), make([]int, len(locs)), make([]cha.Color, len(locs))
	var dep *vi.Deployment
	dep, err := vi.NewDeployment(vi.DeploymentConfig{
		Locations: locs,
		Radii:     radii,
		VMax:      s.Devices.VMax,
		Program:   counterProgram,
		NewCM: func(v vi.VNodeID, env sim.Env) cm.Manager {
			m := &countingCM{Regional: new(cm.Regional).Init(locs[v], dep.LeaderMargin(), env), v: v, t: tl}
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
	w.hooks = vi.EmulatorHooks{
		OnOutput: func(v vi.VNodeID, out cha.Output) {
			w.Mon.Observe(v, out)
			tl.best[v] = max(tl.best[v], out.Color)
		},
		OnJoin:  w.countJoin,
		OnReset: w.countReset,
	}
	w.attachBootstrap()
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

// TestE6ChurnLossCounted counts where E6's availability goes instead of
// guessing: E6's period-2 cell (one region at the origin, 3 bootstrap
// replicas under "regional", a pinger at (1.2, -1) pinging every virtual
// round, and every 2nd virtual round the oldest replica leaves while a
// fresh device arrives and joins), run for E6's 80 virtual rounds on the
// seeds chabench's seeds 1-3 give it. Every instance no replica output
// green in is tabulated by its ballot winners (0, 1 or at least 2 replicas
// whose manager was told it won) and the best color any replica output for
// it (none, red, orange, yellow), and the counted world is checked byte for
// byte against Build's world run through the same loop.
func TestE6ChurnLossCounted(t *testing.T) {
	const period, vrounds = 2, 80
	for _, seed := range []int64{1, 2, 3} {
		s := Spec{
			Version: Version, Seed: period + (seed-1)*7919, VRounds: vrounds,
			Grid:    Grid{Cols: 1, Rows: 1},
			Devices: Devices{Replicas: 3},
			Leader:  "regional",
		}
		s.ApplyDefaults()
		// drive runs E6's loop on w and calls after once each virtual round
		// has run.
		drive := func(w *World, after func(vr int)) {
			w.Eng.Attach(geo.Point{X: 1.2, Y: -1}, nil, func(env sim.Env) sim.Node {
				return w.Dep.NewClient(env, vi.ClientFunc(
					func(vr int, _ []vi.Message, _ bool) *vi.Message {
						return vi.Text(fmt.Sprintf("ping-%04d", vr))
					}))
			})
			replicas := []sim.NodeID{0, 1, 2} // oldest first
			for vr := 0; vr < vrounds; vr++ {
				if vr > 0 && vr%period == 0 {
					w.Eng.Leave(replicas[0])
					replicas = append(replicas[1:], sim.NodeID(w.Eng.NumNodes()))
					w.AttachReplica(geo.Point{X: 0.2 * float64(vr%5), Y: -0.3}, false, nil)
				}
				w.StepVRound()
				after(vr + 1)
			}
		}

		ref, err := Build(s)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		drive(ref, func(int) {})
		var tl tally
		w := countedWorld(t, s, &tl)
		var table [3][int(cha.Green)]int // [winners 0, 1, >=2][best color, 0 = none]
		lost, collided, prevGreen := 0, 0, 0
		drive(w, func(vr int) {
			if g := w.Mon.ReportThrough(0, vr).Green; g == prevGreen {
				lost++
				table[min(tl.wins[0], 2)][tl.best[0]]++
				if tl.collided[0] > 0 {
					collided++
				}
			} else {
				prevGreen = g
			}
			tl.wins[0], tl.collided[0], tl.best[0] = 0, 0, 0
		})
		if !bytes.Equal(w.Checkpoint().Encode(), ref.Checkpoint().Encode()) {
			t.Fatalf("seed %d: the counted world's checkpoint differs from Build's world", seed)
		}
		if rep := w.Report(0); rep.Unavailable != lost {
			t.Fatalf("seed %d: %d instances tabulated lost, the monitor counts %d", seed, lost, rep.Unavailable)
		}
		t.Logf("seed %d: availability %.3f, %d of %d instances lost (%d with a replica that saw its ballot collide), %d joins, %d resets",
			seed, w.Report(0).Availability, lost, vrounds, collided, w.Joins(), w.Resets())
		for wins, row := range table {
			t.Logf("  winners %s: none %2d  red %2d  orange %2d  yellow %2d", []string{"0 ", "1 ", ">=2"}[wins], row[0], row[cha.Red], row[cha.Orange], row[cha.Yellow])
		}
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
