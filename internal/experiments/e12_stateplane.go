package experiments

import (
	"fmt"

	"vinfra/internal/geo"
	"vinfra/internal/harness"
	"vinfra/internal/sim"
	"vinfra/internal/spec"
	"vinfra/internal/vi"
)

// e12Shapes are the state-plane sweep's virtual-node grids: 9, 25 and 49
// virtual nodes, the scales the byte-oriented state plane (internal/wire
// proposals, states and join-acks replacing the string+gob stack) is
// measured at.
var e12Shapes = []struct {
	name       string
	cols, rows int
}{
	{"3x3", 3, 3},
	{"5x5", 5, 5},
	{"7x7", 7, 7},
}

var e12Desc = harness.Descriptor{
	ID:    "E12",
	Group: "E12",
	Title: "E12 — state plane: emulation cost with the wire codec",
	Notes: "per-virtual-round emulation cost at 9/25/49 virtual nodes on the parallel grid stack; wire bytes are sim.MessageSize totals (exact encodings)",
	Columns: []string{
		"vnodes", "devices", "vrounds", "schedule s", "rounds/vround",
		"wire B/vround", "max msg B", "availability",
	},
	Grid: func(quick bool) []harness.Params {
		shapes := e12Shapes
		vrounds := 20
		if quick {
			shapes = e12Shapes[:1]
			vrounds = 6
		}
		var grid []harness.Params
		for _, s := range shapes {
			grid = append(grid, harness.Params{
				Label: s.name,
				Ints:  map[string]int{"cols": s.cols, "rows": s.rows, "vrounds": vrounds},
			})
		}
		return grid
	},
	Run: statePlaneCell,
}

func init() { harness.Register(e12Desc) }

// statePlaneCell measures the steady-state emulation cost of one grid
// deployment: every region has three bootstrapped replicas plus one
// staggered pinging client, and the whole stack (single-medium delivery,
// parallel engine, wire-codec state plane) runs vrounds virtual
// rounds. The columns pin the protocol-level cost — radio rounds per
// virtual round (s+12) and wire bytes per virtual round; the host cost of
// the state plane's serialization is bench/'s metro-vi workload.
func statePlaneCell(c *harness.Cell) []harness.Row {
	cols, rows, vrounds := c.Params.Int("cols"), c.Params.Int("rows"), c.Params.Int("vrounds")
	w := buildWorld(spec.Spec{
		Seed: int64(cols*rows)*3 + c.Base(), VRounds: vrounds, Grid: spec.Grid{Cols: cols, Rows: rows},
		Devices: spec.Devices{Replicas: 3},
		Engine:  spec.Engine{Parallel: true},
	})
	// One client per region, staggered so pings from neighboring regions
	// don't collide every client slot (Devices.Pingers' stagger from a
	// different offset, which the wire-byte columns pin).
	for v, loc := range w.Locs {
		v := v
		w.Eng.Attach(geo.Point{X: loc.X + 1.1, Y: loc.Y - 1.1}, nil, func(env sim.Env) sim.Node {
			return w.Dep.NewClient(env, vi.ClientFunc(
				func(vr int, _ []vi.Message, _ bool) *vi.Message {
					if vr%4 != v%4 {
						return nil
					}
					return vi.Text(fmt.Sprintf("ping-%02d-%04d", v, vr))
				}))
		})
	}
	stepVRounds(w, vrounds)
	st := w.Eng.Stats()
	return []harness.Row{{
		harness.Int(len(w.Locs)), harness.Int(w.Eng.NumNodes()), harness.Int(vrounds),
		harness.Int(w.Dep.Schedule().Len()),
		harness.Int(w.RoundsPerVRound()),
		harness.Float(float64(st.TotalBytes) / float64(vrounds)),
		harness.Int(st.MaxMessageSize),
		harness.Float(w.Mon.Summary(len(w.Locs)).MeanAvailability),
	}}
}
