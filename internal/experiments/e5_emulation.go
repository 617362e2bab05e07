package experiments

import (
	"fmt"

	"vinfra/internal/geo"
	"vinfra/internal/harness"
	"vinfra/internal/spec"
)

// e5Deployments are the density sweep's grid shapes.
var e5Deployments = []struct {
	name string
	grid spec.Grid
}{
	{"1x1", spec.Grid{Cols: 1, Rows: 1}},
	{"1x2", spec.Grid{Cols: 2, Rows: 1}},
	{"2x2", spec.Grid{Cols: 2, Rows: 2}},
	{"3x3", spec.Grid{Cols: 3, Rows: 3}},
}

var e5aDesc = harness.Descriptor{
	ID:      "E5a",
	Group:   "E5",
	Title:   "E5a — emulation overhead vs virtual-node density",
	Notes:   "rounds per virtual round = s+12; depends only on density, not on execution length",
	Columns: []string{"deployment", "vnodes", "schedule s", "rounds/vround", "measured", "availability"},
	Grid: func(quick bool) []harness.Params {
		var grid []harness.Params
		for _, d := range e5Deployments {
			grid = append(grid, harness.Params{
				Label: d.name,
				Ints:  map[string]int{"vrounds": suiteVRounds(quick)},
				Strs:  map[string]string{"deployment": d.name},
			})
		}
		return grid
	},
	Run: emulationDensityCell,
}

var e5bDesc = harness.Descriptor{
	ID:      "E5b",
	Group:   "E5",
	Title:   "E5b — emulation overhead vs replicas per virtual node",
	Notes:   "rounds constant in replica count; only transmissions within fixed phases vary",
	Columns: []string{"replicas", "rounds/vround", "transmissions/vround", "availability"},
	Grid: func(quick bool) []harness.Params {
		var grid []harness.Params
		for _, n := range sweep(quick, []int{1, 2, 4, 8}, []int{1, 4}) {
			grid = append(grid, harness.Params{
				Label: fmt.Sprintf("replicas=%d", n),
				Ints:  map[string]int{"replicas": n, "vrounds": suiteVRounds(quick)},
			})
		}
		return grid
	},
	Run: emulationReplicasCell,
}

func init() {
	harness.Register(e5aDesc)
	harness.Register(e5bDesc)
}

// emulationDensityCell measures the constant per-virtual-round cost for one
// deployment shape: the schedule length s depends only on the deployment's
// conflict degree, and the real rounds per virtual round are exactly s+12
// (Section 4.3), independent of execution length.
func emulationDensityCell(c *harness.Cell) []harness.Row {
	name := c.Params.Str("deployment")
	vrounds := c.Params.Int("vrounds")
	for _, d := range e5Deployments {
		if d.name != name {
			continue
		}
		w := buildWorld(spec.Spec{
			Seed: c.Seed, VRounds: vrounds, Grid: d.grid,
			Devices: spec.Devices{Replicas: 2},
		})
		stepVRounds(w, vrounds)
		rounds := w.Eng.Stats().Rounds
		measured := float64(rounds) / float64(vrounds)
		return []harness.Row{{
			harness.Str(d.name), harness.Int(len(w.Locs)), harness.Int(w.Dep.Schedule().Len()),
			harness.Int(w.RoundsPerVRound()), harness.Float(measured),
			harness.Float(w.Mon.Summary(len(w.Locs)).MeanAvailability),
		}}
	}
	panic(fmt.Sprintf("e5: unknown deployment %q", name))
}

// emulationReplicasCell shows the per-virtual-round cost is constant in the
// number of replicas per virtual node (the agreement protocol never
// serializes over participants — the heart of Theorem 14 applied to the
// emulation).
func emulationReplicasCell(c *harness.Cell) []harness.Row {
	n, vrounds := c.Params.Int("replicas"), c.Params.Int("vrounds")
	w := buildWorld(spec.Spec{
		Seed: c.Seed, VRounds: vrounds, Grid: spec.Grid{Cols: 1, Rows: 1},
		Devices: spec.Devices{Replicas: n},
	})
	attachPinger(w, geo.Point{X: 1.2, Y: -1})
	stepVRounds(w, vrounds)
	st := w.Eng.Stats()
	return []harness.Row{{
		harness.Int(n),
		harness.Float(float64(st.Rounds) / float64(vrounds)),
		harness.Float(float64(st.Transmissions) / float64(vrounds)),
		harness.Float(w.Mon.Report(0).Availability),
	}}
}
