package baseline_test

import (
	"fmt"
	"math"
	"testing"

	"vinfra/internal/baseline"
	"vinfra/internal/cd"
	"vinfra/internal/cha"
	"vinfra/internal/cm"
	"vinfra/internal/geo"
	"vinfra/internal/radio"
	"vinfra/internal/sim"
)

var testRadii = geo.Radii{R1: 10, R2: 20}

func ring(n int, r float64) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		angle := 2 * math.Pi * float64(i) / float64(n)
		pts[i] = geo.Point{X: r * math.Cos(angle), Y: r * math.Sin(angle)}
	}
	return pts
}

// newNaiveCluster attaches n naive replicas on a ring; latest[i] is the
// history replica i last output green.
func newNaiveCluster(t *testing.T, n int) (eng *sim.Engine, rec *cha.Recorder, latest []*cha.History) {
	t.Helper()
	medium := radio.MustMedium(radio.Config{Radii: testRadii, Detector: cd.AC{}})
	eng = sim.NewEngine(medium)
	rec = cha.NewRecorder()
	var leader sim.NodeID // node 0 leads
	latest = make([]*cha.History, n)
	for i, pos := range ring(n, 2) {
		i := i
		eng.Attach(pos, nil, func(env sim.Env) sim.Node {
			record := rec.OutputFunc(env.ID())
			return baseline.NewNaiveReplica(baseline.NaiveConfig{
				Propose: rec.WrapPropose(func(k cha.Instance) cha.Value {
					return cha.V(fmt.Sprintf("n%02d-%06d", i, k))
				}),
				CM: new(cm.Fixed).Init(&leader, env),
				OnOutput: func(out cha.Output) {
					record(out)
					if h := out.History(); h != nil {
						latest[i] = h
					}
				},
			})
		})
	}
	return eng, rec, latest
}

func TestNaiveReplicaSatisfiesCHA(t *testing.T) {
	eng, rec, latest := newNaiveCluster(t, 4)
	eng.Run(30 * cha.RoundsPerInstance)
	rep := rec.Report()
	if v := rep.Violations(); v != "" {
		t.Fatalf("naive baseline violated CHA: %s", v)
	}
	if rep.DecidedRate != 1 {
		t.Errorf("decided rate = %v on a clean channel", rep.DecidedRate)
	}
	for i, h := range latest {
		if h.Len() != 30 {
			t.Errorf("replica %d history covers %d, want 30", i, h.Len())
		}
	}
}

func TestNaiveMessageSizeGrowsWithExecution(t *testing.T) {
	// The point of the baseline: ballots carry the whole history, so the
	// maximum message size grows linearly with execution length —
	// contrast with CHAP's constant (Theorem 14).
	maxAt := func(instances int) int {
		eng, _, _ := newNaiveCluster(t, 3)
		eng.Run(instances * cha.RoundsPerInstance)
		return eng.Stats().MaxMessageSize
	}
	s10, s100, s200 := maxAt(10), maxAt(100), maxAt(200)
	if !(s10 < s100 && s100 < s200) {
		t.Errorf("naive message size should grow: %d, %d, %d", s10, s100, s200)
	}
	// Roughly linear: doubling the instances should roughly double the max
	// size (each entry costs ~19 bytes).
	ratio := float64(s200-s100) / float64(s100-s10+1)
	if ratio < 0.5 {
		t.Errorf("growth does not look linear: %d, %d, %d", s10, s100, s200)
	}
}

func TestNaiveBallotWireSize(t *testing.T) {
	h := cha.NewHistory(3, map[cha.Instance]cha.Value{1: cha.V("aa"), 3: cha.V("b")})
	m := baseline.NaiveBallotMsg{V: cha.V("xyz"), H: h}
	// 3 (value) + positions: 1 present (1+8+2), 2 bottom (1), 3 present (1+8+1)
	want := 3 + (1 + 8 + 2) + 1 + (1 + 8 + 1)
	if got := m.WireSize(); got != want {
		t.Errorf("WireSize = %d, want %d", got, want)
	}
}

// newRSMCluster attaches n RSM nodes on a ring; commits[i] maps each slot
// node i committed to its value.
func newRSMCluster(t *testing.T, n int, adv radio.Adversary) (eng *sim.Engine, nodes []*baseline.MajorityRSM, commits []map[int]string) {
	t.Helper()
	medium := radio.MustMedium(radio.Config{Radii: testRadii, Detector: cd.AC{}, Adversary: adv})
	eng = sim.NewEngine(medium)
	nodes = make([]*baseline.MajorityRSM, n)
	commits = make([]map[int]string, n)
	for i, pos := range ring(n, 2) {
		i := i
		commits[i] = map[int]string{}
		eng.Attach(pos, nil, func(env sim.Env) sim.Node {
			nodes[i] = baseline.NewMajorityRSM(baseline.RSMConfig{
				N:           n,
				Index:       i,
				LeaderIndex: 0,
				Propose:     func(k int) string { return fmt.Sprintf("cmd-%06d", k) },
				OnCommit:    func(k int, v string) { commits[i][k] = v },
			})
			return nodes[i]
		})
	}
	return eng, nodes, commits
}

func TestRSMCommitsOnCleanChannel(t *testing.T) {
	const n, slots = 5, 10
	eng, _, commits := newRSMCluster(t, n, nil)
	eng.Run(slots * baseline.AttemptRounds(n))
	for i, c := range commits {
		if got := len(c); got != slots {
			t.Errorf("node %d committed %d slots, want %d", i, got, slots)
		}
	}
	// All nodes agree on every slot.
	for k := 1; k <= slots; k++ {
		v0, ok := commits[0][k]
		if !ok {
			t.Fatalf("leader missing slot %d", k)
		}
		for i, c := range commits[1:] {
			if v, ok := c[k]; !ok || v != v0 {
				t.Errorf("node %d slot %d = %q,%v want %q", i+1, k, v, ok, v0)
			}
		}
	}
}

func TestRSMRoundsPerDecisionGrowLinearly(t *testing.T) {
	// Θ(n) rounds per decision: the shape of the paper's Section 1.5
	// critique.
	perDecision := func(n int) int {
		eng, nodes, _ := newRSMCluster(t, n, nil)
		eng.Run(5 * baseline.AttemptRounds(n))
		if len(nodes[0].RoundsPerCommit) == 0 {
			t.Fatalf("n=%d: nothing committed", n)
		}
		return nodes[0].RoundsPerCommit[0]
	}
	r4, r8, r16 := perDecision(4), perDecision(8), perDecision(16)
	if r4 != baseline.AttemptRounds(4) || r8 != baseline.AttemptRounds(8) || r16 != baseline.AttemptRounds(16) {
		t.Errorf("rounds per decision = %d/%d/%d, want %d/%d/%d",
			r4, r8, r16, baseline.AttemptRounds(4), baseline.AttemptRounds(8), baseline.AttemptRounds(16))
	}
	if !(r4 < r8 && r8 < r16) {
		t.Error("rounds per decision should grow with n")
	}
}

func TestRSMRetriesThroughLoss(t *testing.T) {
	// Drop everything for the first two attempts; the leader must retry
	// and eventually commit, and replicas must resynchronize.
	const n = 3
	horizon := sim.Round(2 * baseline.AttemptRounds(n))
	adv := radio.NewRandomLoss(1.0, 0, horizon, 5)
	eng, _, commits := newRSMCluster(t, n, adv)
	eng.Run(10 * baseline.AttemptRounds(n))
	if len(commits[0]) == 0 {
		t.Fatal("leader never committed despite channel healing")
	}
	// Replicas caught up on slot 1.
	v0 := commits[0][1]
	for i, c := range commits[1:] {
		if v, ok := c[1]; !ok || v != v0 {
			t.Errorf("node %d: slot 1 = %q,%v want %q", i+1, v, ok, v0)
		}
	}
}

func TestRSMConfigValidation(t *testing.T) {
	mustPanic := func(name string, cfg baseline.RSMConfig) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		baseline.NewMajorityRSM(cfg)
	}
	mustPanic("zero N", baseline.RSMConfig{})
	mustPanic("bad index", baseline.RSMConfig{N: 3, Index: 3})
	mustPanic("leader without propose", baseline.RSMConfig{N: 3, Index: 0, LeaderIndex: 0})
}

func TestRSMMessageSizesConstant(t *testing.T) {
	eng, _, _ := newRSMCluster(t, 4, nil)
	eng.Run(20 * baseline.AttemptRounds(4))
	if got := eng.Stats().MaxMessageSize; got > 32 {
		t.Errorf("RSM messages should be small and constant, got max %d", got)
	}
}
