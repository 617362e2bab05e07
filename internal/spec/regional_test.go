package spec

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"vinfra/internal/cha"
	"vinfra/internal/checkpoint"
	"vinfra/internal/cm"
	"vinfra/internal/geo"
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
// collision, and the best color any replica output (0 when none output).
// Its taps count under mu, since the parallel engine fires them from its
// workers.
type tally struct {
	mu             sync.Mutex
	wins, collided []int
	best           []cha.Color
}

// countedWorld is Build(s) with a tap on the hooks every replica reports
// to: each ballot's feedback to a replica's manager is counted in tl, and
// every replica output is also noted in tl.best. The taps only read, so the
// world is Build's world.
func countedWorld(t *testing.T, s Spec, tl *tally) *World {
	t.Helper()
	w, err := Build(s)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	n := len(w.Locs)
	tl.wins, tl.collided, tl.best = make([]int, n), make([]int, n), make([]cha.Color, n)
	w.hooks.OnBallot = func(v vi.VNodeID, fb cm.Feedback) {
		tl.mu.Lock()
		defer tl.mu.Unlock()
		switch fb {
		case cm.FeedbackWon:
			tl.wins[v]++
		case cm.FeedbackCollision:
			tl.collided[v]++
		}
	}
	observe := w.hooks.OnOutput
	w.hooks.OnOutput = func(v vi.VNodeID, out cha.Output) {
		observe(v, out)
		tl.mu.Lock()
		defer tl.mu.Unlock()
		tl.best[v] = max(tl.best[v], out.Color)
	}
	return w
}

// TestRegionalLeadersCounted counts Property 3 instead of inferring it from
// availability: on the regional document at several grids and spacings,
// every ballot's winners per region (replicas whose manager was fed
// FeedbackWon), every virtual round's availability and each region's
// eligible replicas (those within the leader margin of its location, as
// cm.Regional judges them). After a 50-vround election, exactly one replica
// must win in at least 99 % of a region's ballots and the mean availability
// must be at least 0.95; a grid whose leader margin cannot hold a bootstrap
// replica is refused by Build. The counted world is checked byte for byte
// against Build's, so what is counted is the document's run, and the same
// world on 2 workers must count the same winners, region by region and
// virtual round by virtual round.
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
			replicas := vnodes * s.Devices.Replicas // the bootstrap replicas, IDs 0..replicas-1
			// One ballot per region per virtual round: instance vr's.
			one, green, ballots := 0, 0, 0
			minEligible, maxEligible := replicas, 0
			prevGreen, eligible := make([]int, vnodes), make([]int, vnodes)
			var winners [][]int // per virtual round, per region
			for vr := 1; vr <= s.VRounds; vr++ {
				w.StepVRound()
				clear(eligible)
				for id := range replicas {
					v := id / s.Devices.Replicas
					if w.Eng.Position(sim.NodeID(id)).Within(w.Locs[v], w.Dep.LeaderMargin()) {
						eligible[v]++
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
					prevGreen[v] = g
				}
				winners = append(winners, slices.Clone(tl.wins))
				clear(tl.wins)
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

			par := s
			par.Engine.Workers = 2
			var ptl tally
			pw := countedWorld(t, par, &ptl)
			defer pw.Eng.Close()
			for vr := 1; vr <= s.VRounds; vr++ {
				pw.StepVRound()
				if !slices.Equal(ptl.wins, winners[vr-1]) {
					t.Fatalf("vround %d: winners per region on 2 workers %v, sequential %v", vr, ptl.wins, winners[vr-1])
				}
				clear(ptl.wins)
			}
		})
	}
}

// TestE6ChurnLossCounted counts where E6's availability goes and gates it:
// E6's period-2 and period-8 cells (one region at the origin, 3 bootstrap
// replicas under "regional", a pinger at (1.2, -1) pinging every virtual
// round, and every period-th virtual round the oldest replica leaves while
// a fresh device arrives and joins), run for E6's 80 virtual rounds on the
// seeds chabench's seeds 1-3 give them. Every instance no replica output
// green in is tabulated by its ballot winners (0, 1 or at least 2 replicas
// whose manager was told it won) and the best color any replica output for
// it (none, red, orange, yellow), and the counted world is checked byte for
// byte against Build's world run through the same loop. The gate is the
// succession rules' work: a newcomer sits out its first ballot and the
// losers back off when the leader's silence ends their deferral, so no lost
// instance had a winner, and availability holds at least minAvail.
func TestE6ChurnLossCounted(t *testing.T) {
	const vrounds = 80
	for _, tc := range []struct {
		period   int
		minAvail float64
	}{
		{2, 0.45},
		{8, 0.75},
	} {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("period=%d/seed=%d", tc.period, seed), func(t *testing.T) {
				e6ChurnLossCounted(t, tc.period, vrounds, seed, tc.minAvail)
			})
		}
	}
}

func e6ChurnLossCounted(t *testing.T, period, vrounds int, seed int64, minAvail float64) {
	s := Spec{
		Version: Version, Seed: int64(period) + (seed-1)*7919, VRounds: vrounds,
		Grid:    Grid{Cols: 1, Rows: 1},
		Devices: Devices{Replicas: 3},
		Leader:  "regional",
	}
	s.ApplyDefaults()
	// drive runs E6's loop on w and calls after once each virtual round has
	// run.
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
		t.Fatal("the counted world's checkpoint differs from Build's world")
	}
	rep := w.Report(0)
	if rep.Unavailable != lost {
		t.Fatalf("%d instances tabulated lost, the monitor counts %d", lost, rep.Unavailable)
	}
	t.Logf("availability %.3f, %d of %d instances lost (%d with a replica that saw its ballot collide), %d joins, %d resets",
		rep.Availability, lost, vrounds, collided, w.Joins(), w.Resets())
	for wins, row := range table {
		t.Logf("  winners %s: none %2d  red %2d  orange %2d  yellow %2d", []string{"0 ", "1 ", ">=2"}[wins], row[0], row[cha.Red], row[cha.Orange], row[cha.Yellow])
	}
	if rep.Availability < minAvail {
		t.Errorf("availability %.3f, want >= %.2f", rep.Availability, minAvail)
	}
	won := 0
	for _, row := range table[1:] {
		for _, n := range row {
			won += n
		}
	}
	if won != 0 {
		t.Errorf("%d lost instances had a ballot winner, want every one with 0", won)
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
