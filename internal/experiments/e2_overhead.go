package experiments

import (
	"fmt"
	"math"

	"vinfra/internal/baseline"
	"vinfra/internal/cd"
	"vinfra/internal/cha"
	"vinfra/internal/cm"
	"vinfra/internal/harness"
	"vinfra/internal/metrics"
	"vinfra/internal/radio"
	"vinfra/internal/sim"
)

var e2aDesc = harness.Descriptor{
	ID:      "E2a",
	Group:   "E2",
	Title:   "E2a — Theorem 14: overhead vs number of nodes n",
	Notes:   "CHAP flat at 3 rounds and constant bytes; majority RSM grows linearly with n",
	Columns: []string{"n", "CHAP rounds/inst", "CHAP max msg B", "RSM rounds/decision", "RSM max msg B"},
	Grid: func(quick bool) []harness.Params {
		var grid []harness.Params
		for _, n := range sweep(quick, []int{2, 4, 8, 16, 32, 64}, []int{2, 8, 32}) {
			grid = append(grid, harness.Params{
				Label: fmt.Sprintf("n=%d", n),
				Ints:  map[string]int{"n": n, "instances": suiteInstances(quick) / 4},
			})
		}
		return grid
	},
	Run: overheadVsNCell,
}

var e2bDesc = harness.Descriptor{
	ID:      "E2b",
	Group:   "E2",
	Title:   "E2b — Theorem 14: message size vs execution length L",
	Notes:   "the naive protocol ships the whole history in every ballot",
	Columns: []string{"L (instances)", "CHAP max msg B", "naive max msg B"},
	Grid: func(quick bool) []harness.Params {
		var grid []harness.Params
		for _, l := range sweep(quick, []int{16, 64, 256, 1024}, []int{16, 128}) {
			grid = append(grid, harness.Params{
				Label: fmt.Sprintf("L=%d", l),
				Ints:  map[string]int{"L": l},
			})
		}
		return grid
	},
	Run: overheadVsLengthCell,
}

var e2cDesc = harness.Descriptor{
	ID:      "E2c",
	Group:   "E2",
	Title:   "E2c — rounds per decided instance under message loss",
	Notes:   "loss applied forever (r_cf = infinity); CHAP safety holds throughout",
	Columns: []string{"loss p", "CHAP rounds/decided", "CHAP decided rate", "RSM rounds/commit"},
	Grid: func(quick bool) []harness.Params {
		var grid []harness.Params
		for _, p := range []float64{0, 0.1, 0.3, 0.5} {
			grid = append(grid, harness.Params{
				Label:  fmt.Sprintf("p=%.1f", p),
				Ints:   map[string]int{"n": 4, "instances": suiteInstances(quick)},
				Floats: map[string]float64{"p": p},
			})
		}
		return grid
	},
	Run: roundsUnderLossCell,
}

func init() {
	harness.Register(e2aDesc)
	harness.Register(e2bDesc)
	harness.Register(e2cDesc)
}

// overheadVsNCell measures one n: CHAP's rounds-per-instance and maximum
// message size (Theorem 14: both constant in n) alongside the majority-RSM
// baseline's rounds per decision (Θ(n), Section 1.5).
func overheadVsNCell(c *harness.Cell) []harness.Row {
	n, instances := c.Params.Int("n"), c.Params.Int("instances")
	cl := newCluster(clusterOpts{n: n, fixedWidth: true, seed: c.Seed})
	cl.runInstances(instances)
	st := cl.eng.Stats()
	chapRounds := float64(st.Rounds) / float64(instances)

	rsmRounds, rsmMsg := rsmRun(n, instances, nil, 1+c.Base())
	return []harness.Row{{
		harness.Int(n), harness.Float(chapRounds), harness.Int(st.MaxMessageSize),
		harness.Float(rsmRounds), harness.Int(rsmMsg),
	}}
}

// overheadVsLengthCell measures one execution length L: the maximum message
// size of CHAP and the full-history naive baseline (Theorem 14: CHAP
// constant, naive Θ(L)).
func overheadVsLengthCell(c *harness.Cell) []harness.Row {
	l := c.Params.Int("L")
	cl := newCluster(clusterOpts{n: 4, fixedWidth: true, seed: c.Seed})
	cl.runInstances(l)
	chapMax := cl.eng.Stats().MaxMessageSize

	naiveMax := naiveMaxMessage(4, l)
	return []harness.Row{{harness.Int(l), harness.Int(chapMax), harness.Int(naiveMax)}}
}

// naiveMaxMessage runs the full-history baseline for l instances and
// returns the largest message observed.
func naiveMaxMessage(n, l int) int {
	medium := radio.MustMedium(radio.Config{Radii: Radii, Detector: cd.AC{}})
	eng := sim.NewEngine(medium)
	factory, _ := cm.NewFixed(0)
	for i, pos := range ring(n, 2) {
		i := i
		eng.Attach(pos, nil, func(env sim.Env) sim.Node {
			return baseline.NewNaiveReplica(baseline.NaiveConfig{
				Propose: func(k cha.Instance) cha.Value {
					return cha.V(fmt.Sprintf("%06d-%02d", k, i))
				},
				CM: factory(env),
			})
		})
	}
	eng.Run(l * cha.RoundsPerInstance)
	return eng.Stats().MaxMessageSize
}

// rsmRun runs the majority-RSM baseline and returns the mean rounds per
// committed slot and the max message size.
func rsmRun(n, slots int, adv radio.Adversary, seed int64) (float64, int) {
	medium := radio.MustMedium(radio.Config{Radii: Radii, Detector: cd.AC{}, Adversary: adv, Seed: seed})
	eng := sim.NewEngine(medium, sim.WithSeed(seed))
	var leader *baseline.MajorityRSM
	for i, pos := range ring(n, 2) {
		i := i
		eng.Attach(pos, nil, func(env sim.Env) sim.Node {
			node := baseline.NewMajorityRSM(baseline.RSMConfig{
				N:           n,
				Index:       i,
				LeaderIndex: 0,
				Propose:     func(k int) string { return fmt.Sprintf("cmd-%06d", k) },
			})
			if i == 0 {
				leader = node
			}
			return node
		})
	}
	eng.Run(slots * baseline.AttemptRounds(n) * 2)
	var s metrics.Series
	for _, r := range leader.RoundsPerCommit {
		s.AddInt(r)
	}
	if s.N() == 0 {
		return math.Inf(1), eng.Stats().MaxMessageSize
	}
	return s.Mean(), eng.Stats().MaxMessageSize
}

// roundsUnderLossCell compares effective rounds per decided instance for
// CHAP against rounds per committed slot for the RSM when the channel drops
// messages: CHAP instances cost 3 rounds and fail independently (the next
// instance is a fresh chance), while RSM attempts serialize.
func roundsUnderLossCell(c *harness.Cell) []harness.Row {
	n, instances, p := c.Params.Int("n"), c.Params.Int("instances"), c.Params.Float("p")
	base := c.Base()
	adv := radio.NewRandomLoss(p, 0, cd.Never, 77+base)
	cl := newCluster(clusterOpts{
		n:         n,
		detector:  cd.EventuallyAC{Racc: cd.Never},
		adversary: adv,
		seed:      11 + base,
	})
	cl.runInstances(instances)
	rep := cl.rec.Report()
	chap := math.Inf(1)
	if rep.DecidedRate > 0 {
		chap = float64(cha.RoundsPerInstance) / rep.DecidedRate
	}

	rsm, _ := rsmRun(n, instances, radio.NewRandomLoss(p, 0, cd.Never, 78+base), 12+base)
	return []harness.Row{{
		harness.FloatText(fmt.Sprintf("%.1f", p), p),
		harness.Float(chap), harness.Float(rep.DecidedRate), harness.Float(rsm),
	}}
}
