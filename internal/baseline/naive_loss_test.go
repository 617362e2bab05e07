package baseline_test

import (
	"fmt"
	"testing"

	"vinfra/internal/baseline"
	"vinfra/internal/cd"
	"vinfra/internal/cha"
	"vinfra/internal/cm"
	"vinfra/internal/radio"
	"vinfra/internal/sim"
)

// newNaiveLossCluster builds a naive-CHA cluster over a lossy channel.
func newNaiveLossCluster(t *testing.T, n int, adv radio.Adversary, seed int64) (*sim.Engine, *cha.Recorder) {
	t.Helper()
	medium := radio.MustMedium(radio.Config{
		Radii:     testRadii,
		Detector:  cd.EventuallyAC{Racc: cd.Never},
		Adversary: adv,
		Seed:      seed,
	})
	eng := sim.NewEngine(medium, sim.WithSeed(seed))
	rec := cha.NewRecorder()
	var leader sim.NodeID // node 0 leads
	for i, pos := range ring(n, 2) {
		i := i
		eng.Attach(pos, nil, func(env sim.Env) sim.Node {
			return baseline.NewNaiveReplica(baseline.NaiveConfig{
				Propose: rec.WrapPropose(func(k cha.Instance) cha.Value {
					return cha.V(fmt.Sprintf("n%02d-%06d", i, k))
				}),
				CM:       new(cm.Fixed).Init(&leader, env),
				OnOutput: rec.OutputFunc(env.ID()),
			})
		})
	}
	return eng, rec
}

// The naive protocol also satisfies CHA's safety under loss — it is
// disqualified by message size, not by correctness.
func TestNaiveSafetyUnderLoss(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		adv := radio.NewRandomLoss(0.4, 0.2, cd.Never, seed*19)
		eng, rec := newNaiveLossCluster(t, 4, adv, seed)
		eng.Run(40 * cha.RoundsPerInstance)
		rep := rec.Report()
		if rep.AgreementViolations > 0 || rep.ValidityViolations > 0 {
			t.Errorf("seed %d: naive baseline violated safety: %s", seed, rep.Violations())
		}
		if rep.ColorSpreadViolations > 0 {
			t.Errorf("seed %d: color spread violation", seed)
		}
	}
}

// After the adversary's horizon the naive protocol recovers liveness too.
func TestNaiveLivenessAfterStability(t *testing.T) {
	const rcf = 30
	adv := radio.NewRandomLoss(0.5, 0.2, rcf, 7)
	medium := radio.MustMedium(radio.Config{
		Radii:     testRadii,
		Detector:  cd.EventuallyAC{Racc: rcf},
		Adversary: adv,
		Seed:      7,
	})
	eng := sim.NewEngine(medium, sim.WithSeed(7))
	rec := cha.NewRecorder()
	var leader sim.NodeID // node 0 leads
	for i, pos := range ring(3, 2) {
		i := i
		eng.Attach(pos, nil, func(env sim.Env) sim.Node {
			return baseline.NewNaiveReplica(baseline.NaiveConfig{
				Propose: rec.WrapPropose(func(k cha.Instance) cha.Value {
					return cha.V(fmt.Sprintf("n%02d-%06d", i, k))
				}),
				CM:       new(cm.Fixed).Init(&leader, env),
				OnOutput: rec.OutputFunc(env.ID()),
			})
		})
	}
	eng.Run(50 * cha.RoundsPerInstance)
	rep := rec.Report()
	if !rep.LivenessOK {
		t.Fatalf("naive baseline did not stabilize: %s", rep.Violations())
	}
}

// A crashed naive replica does not disturb the rest.
func TestNaiveSurvivesCrash(t *testing.T) {
	eng, rec := newNaiveLossCluster(t, 3, nil, 3)
	eng.Run(10 * cha.RoundsPerInstance)
	eng.Crash(1)
	rec.MarkCrashed(1)
	eng.Run(20 * cha.RoundsPerInstance)
	rep := rec.Report()
	if v := rep.Violations(); v != "" {
		t.Fatalf("naive baseline after crash: %s", v)
	}
}
