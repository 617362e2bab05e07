package experiments

import (
	"strconv"

	"vinfra/internal/harness"
	"vinfra/internal/spec"
	"vinfra/internal/wire"
)

// E14 is the city-scale experiment: the full virtual-infrastructure stack
// on the region-sharded engine at device counts far beyond what one medium
// handles comfortably, the deployment regime the sharded engine exists for.
// Each cell runs the same city twice — one shard, then eight — and reports
// the outcome once (availability, wire bytes, halo traffic) with a "match"
// column pinning the two runs' final checkpoints equal. What either run
// costs in host time is bench/'s to say (city-100k and city-100k-sharded),
// not this table's.
//
// The city is a plain vinfra-spec/v1 document: a cols x rows virtual-node
// grid at citySpacing (wide enough apart that the TDMA schedule stays short
// — at spacing 6 a 30x30 grid would put hundreds of regions inside one
// conflict radius and stretch the schedule past a hundred slots), three
// replicas plus one staggered pinger client per region, and spec's
// listeners filling the device budget: receive-only vi.Clients wandering
// the whole area under RandomWaypoint — the mass of commuter radios a metro
// deployment serves, abstract mobile clients of the virtual infrastructure.
// Listeners transmit nothing (half a million chattering nodes would just be
// a collision storm) but they move, migrate across shard boundaries, and
// receive in the client and virtual-node phases, so they load exactly the
// paths sharding has to get right: partition, halo exchange and per-shard
// delivery.
var e14Desc = harness.Descriptor{
	ID:    "E14",
	Group: "E14",
	Title: "E14 — city: region-sharded engine at metro scale",
	Notes: "same deployment run on 1 shard then 8; match pins the runs byte-identical (the determinism contract); halo tx = boundary-band copies handed to neighbor shards in the 8-shard run",
	Columns: []string{
		"devices", "vnodes", "vrounds", "rounds",
		"availability", "wire B", "halo tx", "match",
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

// citySoak is one city run: its World is the whole driver — cursor,
// Checkpoint and Restore included — plus the soak row.
type citySoak struct {
	*spec.World
}

// newCitySoak builds the cell's city document on the given shard count.
func newCitySoak(c *harness.Cell, shards int) citySoak {
	devices := c.Params.Int("devices")
	cols, rows := c.Params.Int("cols"), c.Params.Int("rows")
	return citySoak{buildWorld(spec.Spec{
		Seed: int64(devices) + c.Base(), VRounds: c.Params.Int("vrounds"),
		Grid: spec.Grid{Cols: cols, Rows: rows, Spacing: citySpacing},
		Devices: spec.Devices{
			Replicas: soakReplicasPer, Pingers: true,
			Listeners: devices - (soakReplicasPer+1)*cols*rows, VMax: 2,
		},
		Engine: spec.Engine{Parallel: true, Shards: shards},
	})}
}

// digest is the FNV-1a digest of the run's checkpoint with the shard
// geometry and the halo count zeroed — the only fields in which the 1-shard
// and the 8-shard engine may differ, and bench/'s normalisation — so it
// covers every node's state, the monitor and the engine's accounting.
func (s citySoak) digest() uint64 {
	cp := s.Checkpoint()
	cp.Engine.ShardCols, cp.Engine.ShardRows = 0, 0
	cp.Engine.Stats.HaloTransmissions = 0
	return uint64(wire.DigestOf(cp.AppendTo(make([]byte, 0, cp.WireSize()))))
}

// cityRun runs one city on the given shard count to its horizon and
// releases its worker pool before the next run.
func cityRun(c *harness.Cell, shards int) citySoak {
	s := newCitySoak(c, shards)
	for s.VRound() < s.VRounds() {
		s.StepVRound()
	}
	s.Eng.Close()
	return s
}

// cityCell runs one E14 cell: the same city on one shard and on eight, the
// outcome reported once (match pins the two runs' digests equal).
func cityCell(c *harness.Cell) []harness.Row {
	one := cityRun(c, 1).digest()
	eight := cityRun(c, 8)
	st := eight.Eng.Stats()
	return []harness.Row{{
		harness.Int(eight.Eng.NumNodes()), harness.Int(len(eight.Locs)), harness.Int(eight.VRounds()),
		harness.Int(st.Rounds), harness.Float(eight.Summary().MeanAvailability),
		harness.Int(st.TotalBytes), harness.Int(st.HaloTransmissions),
		harness.Bool(one == eight.digest()),
	}}
}

// Columns names the soak row's fields: one resumable run's outcome and
// digest, where the descriptor's row compares two runs.
func (s citySoak) Columns() []string {
	return []string{
		"devices", "vnodes", "vrounds", "rounds",
		"availability", "digest", "tx", "wire B", "halo tx",
	}
}

// Rows reports the soak row, what segmented and uninterrupted runs are
// compared on.
func (s citySoak) Rows() []harness.Row {
	st := s.Eng.Stats()
	return []harness.Row{{
		harness.Int(s.Eng.NumNodes()), harness.Int(len(s.Locs)),
		harness.Int(s.VRounds()), harness.Int(st.Rounds),
		harness.Float(s.Summary().MeanAvailability),
		harness.Str(strconv.FormatUint(s.digest(), 16)),
		harness.Int(st.Transmissions), harness.Int(st.TotalBytes),
		harness.Int(st.HaloTransmissions),
	}}
}
