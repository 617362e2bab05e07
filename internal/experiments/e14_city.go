package experiments

import (
	"vinfra/internal/harness"
	"vinfra/internal/sim"
	"vinfra/internal/wire"
)

// E14 is the city-scale experiment: the full virtual-infrastructure stack
// on the region-sharded engine at device counts far beyond what one medium
// handles comfortably, the deployment regime the sharded engine exists for.
// Each cell runs the same city twice — one shard, then eight — and reports
// the outcome once (availability, listener coverage, wire bytes, halo
// traffic) with a "match" column pinning the two runs byte-identical. What
// either run costs in host time is bench/'s to say (city-100k and
// city-100k-sharded), not this table's.
//
// The city: a cols x rows virtual-node grid at citySpacing (wide enough
// apart that the TDMA schedule stays short — at spacing 6 a 30x30 grid
// would put hundreds of regions inside one conflict radius and stretch the
// schedule past a hundred slots), three replicas plus one staggered pinger
// client per region, and a background population of listen-only devices
// wandering the whole area under RandomWaypoint — the mass of commuter
// radios a metro deployment serves. Listeners transmit nothing (half a
// million chattering nodes would just be a collision storm) but they move,
// migrate across shard boundaries, and receive every round, so they load
// exactly the paths sharding has to get right: partition, halo exchange
// and per-shard delivery.
var e14Desc = harness.Descriptor{
	ID:    "E14",
	Group: "E14",
	Title: "E14 — city: region-sharded engine at metro scale",
	Notes: "same deployment run on 1 shard then 8; match pins the runs byte-identical (the determinism contract); halo tx = boundary-band copies handed to neighbor shards in the 8-shard run",
	Columns: []string{
		"devices", "vnodes", "vrounds", "rounds",
		"availability", "coverage", "wire B", "halo tx", "match",
	},
	Grid: func(quick bool) []harness.Params {
		type shape struct {
			label      string
			devices    int
			cols, rows int
			vrounds    int
		}
		shapes := []shape{
			{"10k/15x15", 10_000, 15, 15, 3},
			{"100k/15x15", 100_000, 15, 15, 3},
			{"100k/30x30", 100_000, 30, 30, 3},
			{"500k/30x30", 500_000, 30, 30, 2},
			{"1M/30x30", 1_000_000, 30, 30, 1},
		}
		if quick {
			shapes = []shape{{"2k/5x5", 2_000, 5, 5, 2}}
		}
		var grid []harness.Params
		for _, s := range shapes {
			grid = append(grid, harness.Params{
				Label: s.label,
				Ints: map[string]int{
					"devices": s.devices, "cols": s.cols, "rows": s.rows,
					"vrounds": s.vrounds,
				},
			})
		}
		return grid
	},
	Run: cityCell,
}

func init() { harness.Register(e14Desc) }

// citySpacing is the virtual-node grid pitch for E14. The schedule's
// conflict radius is R1 + 2*R2 = 50, so at 25 a region conflicts only with
// its near neighbors and the TDMA schedule stays a handful of slots long
// regardless of grid size — city growth adds regions, not schedule length.
const citySpacing = 25.0

// cityListener is a background device: it never transmits, and only counts
// the rounds in which it heard anything. The heard counts (folded into the
// run signature in attach order) make every listener's full reception
// history part of the determinism check.
type cityListener struct {
	heard int
}

func (l *cityListener) Transmit(sim.Round) sim.Message { return nil }

func (l *cityListener) Receive(_ sim.Round, rx sim.Reception) {
	if len(rx.Msgs) > 0 {
		l.heard++
	}
}

// AppendState implements sim.Snapshotter: the heard count is the
// listener's only state, and it is part of the run signature, so it must
// survive a checkpoint.
func (l *cityListener) AppendState(dst []byte) []byte {
	return wire.AppendUvarint(dst, uint64(l.heard))
}

// RestoreState implements sim.Snapshotter.
func (l *cityListener) RestoreState(data []byte) error {
	d := wire.Dec(data)
	l.heard = int(d.Uvarint())
	return d.Finish()
}

// citySig is the deterministic outcome of one city run. Two runs of the
// same cell must compare equal regardless of shard count — the signature
// covers the VI layer (availability), the background population (coverage
// count and the order-sensitive fold of every listener's heard count) and
// the engine's own accounting.
type citySig struct {
	Avail   float64
	Covered int
	Heard   uint64
	Tx      int
	Bytes   int
}

// cityOutcome is one run's signature plus the engine's round and halo
// counts.
type cityOutcome struct {
	sig    citySig
	rounds int
	halo   int
}

// cityRun builds and runs one city deployment on the given shard count.
func cityRun(c *harness.Cell, shards int) cityOutcome {
	s := newCitySoak(c, shards)
	for s.VRound() < s.VRounds() {
		s.StepVRound()
	}
	sig, st := s.outcome()
	s.w.Eng.Close() // release this run's worker pool before the next run
	return cityOutcome{sig: sig, rounds: st.Rounds, halo: st.HaloTransmissions}
}

// cityCell runs one E14 cell: the same city on one shard and on eight, the
// outcome reported once (match pins the two runs equal).
func cityCell(c *harness.Cell) []harness.Row {
	devices := c.Params.Int("devices")
	cols, rows := c.Params.Int("cols"), c.Params.Int("rows")
	vrounds := c.Params.Int("vrounds")

	one := cityRun(c, 1)
	eight := cityRun(c, 8)
	match := one.sig == eight.sig

	coverage := 0.0
	if n := devices - (cols*rows)*4; n > 0 {
		coverage = float64(eight.sig.Covered) / float64(n)
	}
	return []harness.Row{{
		harness.Int(devices), harness.Int(cols * rows), harness.Int(vrounds),
		harness.Int(eight.rounds),
		harness.Float(eight.sig.Avail), harness.Float(coverage),
		harness.Int(eight.sig.Bytes), harness.Int(eight.halo),
		harness.Bool(match),
	}}
}
