package experiments

import (
	"fmt"

	"vinfra/internal/cd"
	"vinfra/internal/harness"
	"vinfra/internal/radio"
	"vinfra/internal/sim"
)

// e8Detectors are the detector-class ablation cases.
var e8Detectors = []struct {
	name string
	det  func(rcf int) cd.Detector
}{
	{"AC (always accurate)", func(int) cd.Detector { return cd.AC{} }},
	{"eventually-AC (paper)", func(rcf int) cd.Detector {
		return cd.EventuallyAC{Racc: sim.Round(rcf), FalsePositiveRate: 0.2}
	}},
	{"complete, never accurate", func(int) cd.Detector { return cd.Complete{FalsePositiveRate: 0.2} }},
	{"null (no detection)", func(int) cd.Detector { return cd.Null{} }},
}

var e8aDesc = harness.Descriptor{
	ID:      "E8a",
	Group:   "E8",
	Title:   "E8a — collision detector ablation (loss p=0.4 before r_cf=90, then clean)",
	Notes:   "null detector violates completeness -> safety breaks; never-accurate detector keeps safety but hurts liveness",
	Columns: []string{"detector", "decided rate", "agreement viol", "broken chains", "liveness"},
	Grid: func(quick bool) []harness.Params {
		var grid []harness.Params
		for i, tc := range e8Detectors {
			grid = append(grid, harness.Params{
				Label: tc.name,
				Ints:  map[string]int{"case": i, "instances": suiteInstances(quick) / 2},
			})
		}
		return grid
	},
	Run: detectorAblationCell,
}

var e8bDesc = harness.Descriptor{
	ID:      "E8b",
	Group:   "E8",
	Title:   "E8b — contention manager ablation (clean channel)",
	Notes:   "oracle stabilizes at instance 1; backoff stabilizes after leader election settles",
	Columns: []string{"contention manager", "n", "stabilization k_st", "decided rate"},
	Grid: func(quick bool) []harness.Params {
		var grid []harness.Params
		for _, n := range []int{2, 4, 8} {
			for _, mgr := range []string{"oracle", "backoff"} {
				grid = append(grid, harness.Params{
					Label: fmt.Sprintf("%s n=%d", mgr, n),
					Ints:  map[string]int{"n": n, "instances": suiteInstances(quick)},
					Strs:  map[string]string{"cm": mgr},
				})
			}
		}
		return grid
	},
	Run: cmAblationCell,
}

var e8cDesc = harness.Descriptor{
	ID:      "E8c",
	Group:   "E8",
	Title:   "E8c — Section 3.5 garbage collection: retained entries vs execution length",
	Notes:   "plain grows linearly; checkpointed stays constant while instances go green",
	Columns: []string{"L (instances)", "plain retained", "checkpointed retained", "checkpoint digest agreement"},
	Grid: func(quick bool) []harness.Params {
		var grid []harness.Params
		for _, l := range sweep(quick, []int{50, 200, 800}, []int{50, 200}) {
			grid = append(grid, harness.Params{
				Label: fmt.Sprintf("L=%d", l),
				Ints:  map[string]int{"L": l},
			})
		}
		return grid
	},
	Run: checkpointAblationCell,
}

func init() {
	harness.Register(e8aDesc)
	harness.Register(e8bDesc)
	harness.Register(e8cDesc)
}

// detectorAblationCell compares one collision detector class under
// sustained loss: the paper requires completeness for safety and eventual
// accuracy for liveness; the table shows what breaks when each is removed.
func detectorAblationCell(c *harness.Cell) []harness.Row {
	tc := e8Detectors[c.Params.Int("case")]
	instances := c.Params.Int("instances")
	const rcf = 90
	seed := int64(c.Params.Int("case")*13+3) + c.Base()
	agr, broken := 0, 0
	var decided harness.Series
	live := 0
	const runs = 5
	for run := 0; run < runs; run++ {
		cl := newCluster(clusterOpts{
			n:         4,
			detector:  tc.det(rcf),
			adversary: radio.NewRandomLoss(0.4, 0.1, rcf, seed+int64(run)*101),
			seed:      seed + int64(run),
		})
		cl.runInstances(instances)
		rep := cl.rec.Report()
		agr += rep.AgreementViolations
		decided.Add(rep.DecidedRate)
		if rep.LivenessOK {
			live++
		}
		for _, r := range cl.replicas {
			broken += r.Core().BrokenChains
		}
	}
	liveness := "ok"
	if live < runs {
		liveness = "degraded"
	}
	return []harness.Row{{
		harness.Str(tc.name), harness.Float(decided.Mean()), harness.Int(agr),
		harness.Int(broken), harness.Str(liveness),
	}}
}

// cmAblationCell compares contention managers at one population size: the
// oracle gives the best-case stabilization; randomized backoff pays an
// election delay but needs no global knowledge (Property 3's
// "eventually").
func cmAblationCell(c *harness.Cell) []harness.Row {
	n, instances, mgr := c.Params.Int("n"), c.Params.Int("instances"), c.Params.Str("cm")
	cl := newCluster(clusterOpts{n: n, backoff: mgr == "backoff", seed: int64(n) + c.Base()})
	cl.runInstances(instances)
	rep := cl.rec.Report()
	stab := harness.Str("-")
	if rep.LivenessOK {
		stab = harness.Int(int(rep.Stabilization))
	}
	return []harness.Row{{
		harness.Str(mgr), harness.Int(n), stab, harness.Float(rep.DecidedRate),
	}}
}

// checkpointAblationCell compares local space usage of plain CHAP against
// the checkpointed variant of Section 3.5 for one execution length.
func checkpointAblationCell(c *harness.Cell) []harness.Row {
	l := c.Params.Int("L")
	seed := 2 + c.Base()
	plain := newCluster(clusterOpts{n: 3, seed: seed})
	plain.runInstances(l)
	plainMax := 0
	for _, r := range plain.replicas {
		if got := r.Core().Retained(); got > plainMax {
			plainMax = got
		}
	}

	ckpt := newCluster(clusterOpts{n: 3, seed: seed, checkpoint: true})
	ckpt.runInstances(l)
	ckptMax := 0
	agree := true
	first := ckpt.replicas[0].Checkpoint()
	for _, r := range ckpt.replicas {
		if got := r.Core().Retained(); got > ckptMax {
			ckptMax = got
		}
		if r.Checkpoint() != first {
			agree = false
		}
	}
	return []harness.Row{{
		harness.Int(l), harness.Int(plainMax), harness.Int(ckptMax), harness.Bool(agree),
	}}
}
