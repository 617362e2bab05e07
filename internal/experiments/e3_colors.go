package experiments

import (
	"fmt"
	"sync"

	"vinfra/internal/cd"
	"vinfra/internal/cha"
	"vinfra/internal/harness"
	"vinfra/internal/radio"
	"vinfra/internal/sim"
)

var e3Desc = harness.Descriptor{
	ID:      "E3",
	Group:   "E3",
	Title:   "E3 — Property 4: color distribution and spread vs loss rate",
	Notes:   "spread must never exceed 1 (Lemma 5); violations must be 0",
	Columns: []string{"loss p", "green", "yellow", "orange", "red", "max spread", "violations"},
	Grid: func(quick bool) []harness.Params {
		var grid []harness.Params
		for i, p := range []float64{0, 0.1, 0.3, 0.5, 0.7, 0.9} {
			grid = append(grid, harness.Params{
				Label:  fmt.Sprintf("p=%.1f", p),
				Ints:   map[string]int{"n": 5, "instances": suiteInstances(quick), "i": i},
				Floats: map[string]float64{"p": p},
			})
		}
		return grid
	},
	Run: colorSpreadCell,
}

func init() { harness.Register(e3Desc) }

// ColorCensus counts the final colors every node assigned across an
// adversarial run, plus the per-instance spread.
type ColorCensus struct {
	mu     sync.Mutex
	counts map[cha.Color]int
	total  int
}

func newColorCensus() *ColorCensus {
	return &ColorCensus{counts: make(map[cha.Color]int)}
}

func (cc *ColorCensus) record(out cha.Output) {
	cc.mu.Lock()
	cc.counts[out.Color]++
	cc.total++
	cc.mu.Unlock()
}

func (cc *ColorCensus) fraction(c cha.Color) float64 {
	if cc.total == 0 {
		return 0
	}
	return float64(cc.counts[c]) / float64(cc.total)
}

// colorSpreadCell runs one loss rate of the sweep and reports the color
// distribution plus the maximum per-instance spread — Property 4 / Lemma 5
// require the spread to never exceed one shade.
func colorSpreadCell(c *harness.Cell) []harness.Row {
	n, instances, i := c.Params.Int("n"), c.Params.Int("instances"), c.Params.Int("i")
	p := c.Params.Float("p")
	seed := int64(i*31+5) + c.Base()
	census := newColorCensus()
	adv := radio.NewRandomLoss(p, p/2, cd.Never, seed)
	cl := newCluster(clusterOpts{
		n:         n,
		detector:  cd.EventuallyAC{Racc: cd.Never, FalsePositiveRate: p / 4},
		adversary: adv,
		seed:      seed,
	})
	// Observe colors through the engine round hook: read each replica's
	// color for the instance at the end of its veto-2 round.
	cl.eng.OnRound(func(r sim.Round, _ []sim.Transmission, _ []sim.Reception) {
		k, phase := cha.PhaseOf(r)
		if phase != cha.PhaseVeto2 {
			return
		}
		for _, rep := range cl.replicas {
			census.record(cha.Output{Instance: k, Color: rep.Core().Status(k)})
		}
	})
	cl.runInstances(instances)
	rep := cl.rec.Report()
	return []harness.Row{{
		harness.FloatText(fmt.Sprintf("%.1f", p), p),
		harness.Float(census.fraction(cha.Green)),
		harness.Float(census.fraction(cha.Yellow)),
		harness.Float(census.fraction(cha.Orange)),
		harness.Float(census.fraction(cha.Red)),
		harness.Int(rep.MaxColorSpread),
		harness.Int(rep.ColorSpreadViolations),
	}}
}
