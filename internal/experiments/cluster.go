// Package experiments implements the reproduction experiment suite
// E1–E14 (there is no E10): Figure 2 of the paper reproduced directly,
// every quantitative claim (Theorem 14's constant overhead, Property 4's
// color invariant, Theorems 10/12/13, the Section 4 emulation overhead and
// progress conditions, the Section 1.5 baseline comparisons) turned into a
// table of simulated quantities, and the campaigns at scale — metro churn
// (E11), the state plane (E12), the adversary grid (E13) and the
// region-sharded city (E14).
//
// Each table registers a harness.Descriptor in its file's init: a
// parameter grid, a seed list, and a cell function returning typed rows.
// cmd/chabench runs the registry (text tables or JSON, sequential or
// fanned over a worker pool); tests and bench_test.go call the same cell
// functions.
// Cell functions derive every internal random seed from the harness seed
// via Cell.Base, so seed 1 reproduces the historical tables exactly and
// the quick-grid output for fixed seeds is pinned byte-for-byte by
// testdata/golden_quick_seeds12.json.
package experiments

import (
	"fmt"
	"math"

	"vinfra/internal/cd"
	"vinfra/internal/cha"
	"vinfra/internal/cm"
	"vinfra/internal/geo"
	"vinfra/internal/radio"
	"vinfra/internal/sim"
)

// Radii are the radio parameters used throughout the suite.
var Radii = geo.Radii{R1: 10, R2: 20}

// ring places n nodes evenly on a circle of radius r at the origin (all
// within R1/2, the CHA setting of Section 3.2).
func ring(n int, r float64) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		angle := 2 * math.Pi * float64(i) / float64(n)
		pts[i] = geo.Point{X: r * math.Cos(angle), Y: r * math.Sin(angle)}
	}
	return pts
}

// clusterOpts configures a CHA cluster run.
type clusterOpts struct {
	n          int
	detector   cd.Detector
	adversary  radio.Adversary
	backoff    bool // randomized backoff managers instead of the oracle led by node 0
	seed       int64
	checkpoint bool
	fixedWidth bool // fixed-width proposal values (for size measurements)
}

// cluster is a ready-to-run CHA deployment.
type cluster struct {
	eng      *sim.Engine
	rec      *cha.Recorder
	replicas []*cha.Replica
	ids      []sim.NodeID
}

func newCluster(o clusterOpts) *cluster {
	if o.detector == nil {
		o.detector = cd.AC{}
	}
	if o.seed == 0 {
		o.seed = 1
	}
	medium := radio.MustMedium(radio.Config{
		Radii:     Radii,
		Detector:  o.detector,
		Adversary: o.adversary,
		Seed:      o.seed,
	})
	c := &cluster{
		eng: sim.NewEngine(medium, sim.WithSeed(o.seed)),
		rec: cha.NewRecorder(),
	}
	var leader sim.NodeID // the oracle's leader cell
	for i, pos := range ring(o.n, 2) {
		i := i
		id := c.eng.Attach(pos, nil, func(env sim.Env) sim.Node {
			var mgr cm.Manager = new(cm.Fixed).Init(&leader, env)
			if o.backoff {
				mgr = new(cm.Backoff).Init(env)
			}
			rep := cha.NewReplica(cha.Config{
				Propose: c.rec.WrapPropose(func(k cha.Instance) cha.Value {
					if o.fixedWidth {
						return cha.V(fmt.Sprintf("%010d", int(k)*100+i))
					}
					return cha.V(fmt.Sprintf("n%02d-%06d", i, k))
				}),
				CM:         mgr,
				OnOutput:   c.rec.OutputFunc(env.ID()),
				Checkpoint: o.checkpoint,
			})
			c.replicas = append(c.replicas, rep)
			return rep
		})
		c.ids = append(c.ids, id)
	}
	return c
}

func (c *cluster) runInstances(n int) {
	c.eng.Run(n * cha.RoundsPerInstance)
}
