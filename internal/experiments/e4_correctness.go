package experiments

import (
	"fmt"

	"vinfra/internal/cd"
	"vinfra/internal/cha"
	"vinfra/internal/harness"
	"vinfra/internal/radio"
	"vinfra/internal/sim"
)

var e4Desc = harness.Descriptor{
	ID:      "E4",
	Group:   "E4",
	Title:   "E4 — Theorems 10/12/13: randomized adversarial campaign",
	Notes:   "violations must be 0; k_st is the first instance after which every node decides every instance",
	Columns: []string{"r_cf", "runs", "agreement viol", "validity viol", "spread viol", "liveness ok", "mean k_st", "bound k_cf+2"},
	Grid: func(quick bool) []harness.Params {
		runs := 30
		if quick {
			runs = 8
		}
		var grid []harness.Params
		for _, rcf := range []int{30, 90, 180} {
			grid = append(grid, harness.Params{
				Label: fmt.Sprintf("rcf=%d", rcf),
				Ints:  map[string]int{"rcf": rcf, "runs": runs, "instances_after": suiteInstances(quick) / 4},
			})
		}
		return grid
	},
	Run: correctnessCell,
}

func init() { harness.Register(e4Desc) }

// correctnessCell runs the randomized adversarial campaign for one r_cf and
// verifies the CHA guarantees: agreement and validity must never be
// violated (Theorems 10, 13), the color spread must stay within one shade
// (Property 4), and after the channel stabilizes, liveness must hold with a
// stabilization instance tracking r_cf (Theorem 12).
func correctnessCell(c *harness.Cell) []harness.Row {
	rcf := sim.Round(c.Params.Int("rcf"))
	runs := c.Params.Int("runs")
	instancesAfter := c.Params.Int("instances_after")

	var agr, val, spread, live int
	var kst harness.Series
	for s := 0; s < runs; s++ {
		seed := int64(s*97+13) + c.Base()
		n := 3 + s%5
		p := 0.2 + 0.1*float64(s%6)
		cl := newCluster(clusterOpts{
			n:         n,
			detector:  cd.EventuallyAC{Racc: rcf, FalsePositiveRate: p / 2},
			adversary: radio.NewRandomLoss(p, p/2, rcf, seed*7),
			seed:      seed,
		})
		cl.runInstances(int(rcf)/cha.RoundsPerInstance + instancesAfter)
		rep := cl.rec.Report()
		agr += rep.AgreementViolations
		val += rep.ValidityViolations
		spread += rep.ColorSpreadViolations
		if rep.LivenessOK {
			live++
			kst.AddInt(int(rep.Stabilization))
		}
	}
	bound := int(rcf)/cha.RoundsPerInstance + 2
	return []harness.Row{{
		harness.Int(int(rcf)), harness.Int(runs), harness.Int(agr), harness.Int(val),
		harness.Int(spread),
		harness.FloatText(fmt.Sprintf("%d/%d", live, runs), float64(live)/float64(runs)),
		harness.Float(kst.Mean()), harness.Int(bound),
	}}
}
