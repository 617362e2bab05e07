package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"vinfra/internal/checkpoint"
	"vinfra/internal/faults"
	"vinfra/internal/geo"
	"vinfra/internal/harness"
	"vinfra/internal/sim"
	"vinfra/internal/spec"
	"vinfra/internal/vi"
	"vinfra/internal/wire"
)

// runSoak steps a freshly built soak to completion.
func runSoak(t *testing.T, exp string, p harness.Params, seed int64, shards int) []harness.Row {
	t.Helper()
	s, err := NewSoak(exp, &harness.Cell{Params: p, Seed: seed}, shards)
	if err != nil {
		t.Fatal(err)
	}
	for s.VRound() < s.VRounds() {
		s.StepVRound()
	}
	return s.Rows()
}

// runSegmented runs the same cell as a chain of checkpointed segments: at
// every cut the run is suspended into a checkpoint, the checkpoint makes a
// full trip through the file encoding, and a freshly constructed soak (a
// brand-new engine, medium, deployment and monitor) resumes from it.
func runSegmented(t *testing.T, exp string, p harness.Params, seed int64, shards int, cuts []int) []harness.Row {
	t.Helper()
	s, err := NewSoak(exp, &harness.Cell{Params: p, Seed: seed}, shards)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range cuts {
		for s.VRound() < cut {
			s.StepVRound()
		}
		cp, err := checkpoint.Decode(s.Checkpoint().Encode())
		if err != nil {
			t.Fatalf("checkpoint encode/decode at vround %d: %v", cut, err)
		}
		fresh, err := NewSoak(exp, &harness.Cell{Params: p, Seed: seed}, shards)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Restore(cp); err != nil {
			t.Fatalf("restore at vround %d: %v", cut, err)
		}
		if fresh.VRound() != cut {
			t.Fatalf("restored soak resumes at vround %d, checkpoint was taken at %d", fresh.VRound(), cut)
		}
		s = fresh
	}
	for s.VRound() < s.VRounds() {
		s.StepVRound()
	}
	return s.Rows()
}

// TestSoakRestoreEqualsUninterrupted is the golden property of the
// checkpoint plane: an E11/E13 run suspended into checkpoints at several
// virtual-round cuts and resumed on freshly built deployments produces
// rows byte-identical to the uninterrupted run — across the single-medium
// bed and region-sharded beds (shards 1 and 8), through every adversary
// kind (mid-jam duty cycle, between scheduled region wipes, inside a churn
// storm's window, mid crash-burst attrition) and the metro churn load with
// its mid-run joiners.
func TestSoakRestoreEqualsUninterrupted(t *testing.T) {
	type tc struct {
		exp string
		p   harness.Params
	}
	var cases []tc
	for _, p := range e11Desc.Grid(true) {
		cases = append(cases, tc{"E11", p})
	}
	for _, p := range e13Desc.Grid(true) {
		cases = append(cases, tc{"E13", p})
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("%s/%s", c.exp, c.p.Label), func(t *testing.T) {
			t.Parallel()
			want := runSoak(t, c.exp, c.p, 1, 0)
			for _, shards := range []int{0, 1, 8} {
				got := runSegmented(t, c.exp, c.p, 1, shards, []int{2, 5, 7})
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("shards=%d: segmented rows diverge from the uninterrupted run:\ngot:  %+v\nwant: %+v",
						shards, got, want)
				}
			}
		})
	}
}

// TestSoakRestoreResumesWorld holds a restored churn soak's World, not only
// its rows, to the straight run's: E11 and E13 cells cut at virtual rounds
// 2, 5 and 7 and restored on a fresh soak must agree with the uninterrupted
// run at every later virtual round in the world's cursor, its deployment
// summary, every virtual node's report and its join/reset counts. The rows
// alone cannot show a cursor left behind: E11 reads availability 1.00 at
// the horizon either way.
func TestSoakRestoreResumesWorld(t *testing.T) {
	type worldSoak interface {
		Soak
		World() *spec.World
	}
	type view struct {
		vr            int
		sum           vi.AvailabilitySummary
		reports       []vi.AvailabilityReport
		joins, resets int
	}
	look := func(w *spec.World) view {
		v := view{vr: w.VRound(), sum: w.Summary(), joins: w.Joins(), resets: w.Resets()}
		for i := range w.Locs {
			v.reports = append(v.reports, w.Report(vi.VNodeID(i)))
		}
		return v
	}
	type tc struct {
		exp string
		p   harness.Params
	}
	var cases []tc
	for _, p := range e11Desc.Grid(true) {
		cases = append(cases, tc{"E11", p})
	}
	for _, p := range e13Desc.Grid(true) {
		cases = append(cases, tc{"E13", p})
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/%s", c.exp, c.p.Label), func(t *testing.T) {
			t.Parallel()
			mk := func() worldSoak {
				s, err := NewSoak(c.exp, &harness.Cell{Params: c.p, Seed: 1}, 0)
				if err != nil {
					t.Fatal(err)
				}
				return s.(worldSoak)
			}
			straight := mk()
			want := []view{look(straight.World())} // want[vr]: after vr virtual rounds
			for straight.VRound() < straight.VRounds() {
				straight.StepVRound()
				want = append(want, look(straight.World()))
			}
			for _, cut := range []int{2, 5, 7} {
				s := mk()
				for s.VRound() < cut {
					s.StepVRound()
				}
				cp, err := checkpoint.Decode(s.Checkpoint().Encode())
				if err != nil {
					t.Fatalf("checkpoint at vround %d: %v", cut, err)
				}
				s = mk()
				if err := s.Restore(cp); err != nil {
					t.Fatalf("restore at vround %d: %v", cut, err)
				}
				for vr := cut; ; vr++ {
					if got := look(s.World()); !reflect.DeepEqual(got, want[vr]) {
						t.Fatalf("cut at vround %d: at vround %d the restored world reads\n%+v\nthe straight run\n%+v", cut, vr, got, want[vr])
					}
					if vr == s.VRounds() {
						break
					}
					s.StepVRound()
				}
			}
		})
	}
}

// TestCitySoakRestoreEqualsUninterrupted extends the golden property to
// E14: the sharded city — mobile listeners migrating across shard
// boundaries under RandomWaypoint — checkpointed mid-run and resumed on a
// fresh bed, pinned byte-identical (including the checkpoint digest over
// every node's state) on shards 1 and 8.
func TestCitySoakRestoreEqualsUninterrupted(t *testing.T) {
	p := harness.Params{
		Label: "2k/5x5",
		Ints: map[string]int{
			"devices": 2_000, "cols": 5, "rows": 5, "vrounds": 2,
		},
	}
	// The halo-transmission column is shard-count-dependent cost accounting,
	// so each shard count is pinned against its own uninterrupted run.
	for _, shards := range []int{1, 8} {
		want := runSoak(t, "E14", p, 1, shards)
		got := runSegmented(t, "E14", p, 1, shards, []int{1})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: segmented city rows diverge:\ngot:  %+v\nwant: %+v", shards, got, want)
		}
	}
}

// TestCheckpointMidRound checkpoints at engine rounds that are NOT
// virtual-round boundaries — mid CellJammer duty cycle, one round after a
// RegionWipe, inside a ChurnStorm window — so the emulators' mid-vround
// scratch state (collected ballots, pending join requests, broadcast
// flags) must survive the trip. Equality is judged on the full engine and
// monitor snapshot encodings, the strongest byte-identity check available.
func TestCheckpointMidRound(t *testing.T) {
	locs := geo.Grid{Spacing: 6, Cols: 3, Rows: 3}.Locations()
	per := vi.Timing{S: vi.BuildSchedule(locs, Radii).Len()}.RoundsPerVRound()
	for _, shards := range []int{1, 8} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			t.Parallel()
			mk := func() *spec.World {
				w := buildWorld(spec.Spec{
					Seed: 11, Grid: spec.Grid{Cols: 3, Rows: 3},
					Engine: spec.Engine{Parallel: true, Shards: shards},
					Faults: []spec.Fault{{
						Kind: spec.KindCellJammer, From: per / 2, CellSize: 6, Cells: 2, Seed: 99,
					}},
				})
				for _, loc := range locs {
					attachPinger(w, geo.Point{X: loc.X + 1.2, Y: loc.Y - 1})
				}
				w.Eng.AddFault(faults.RegionWipe{
					Center: locs[4],
					Radius: 1.0,
					At:     sim.Round(2*per + per/3),
				})
				w.Eng.AddFault(&faults.ChurnStorm{
					Window: faults.Window{From: sim.Round(per), Until: sim.Round(3 * per)},
					Period: per / 2,
					Kills:  1,
					Seed:   17,
					// Pure attrition (no Respawn) sparing the leaders, so the
					// node population stays construction-determined.
					Eligible: func(id sim.NodeID) bool { return int(id)%3 != 0 },
				})
				return w
			}
			total := 5 * per

			straight := mk()
			straight.Eng.Run(total)
			wantEng := straight.Eng.Snapshot().AppendTo(nil)
			wantMon := straight.Mon.Snapshot().AppendTo(nil)

			w := mk()
			cuts := []int{per/2 + 1, 2*per + per/3 + 1, 3*per + 2}
			for _, cut := range cuts {
				w.Eng.Run(cut - int(w.Eng.Round()))
				cp, err := checkpoint.Decode(w.Checkpoint().Encode())
				if err != nil {
					t.Fatalf("checkpoint at round %d: %v", cut, err)
				}
				w = mk()
				if err := w.Restore(cp); err != nil {
					t.Fatalf("restore at round %d: %v", cut, err)
				}
			}
			w.Eng.Run(total - int(w.Eng.Round()))

			if got := w.Eng.Snapshot().AppendTo(nil); !bytes.Equal(got, wantEng) {
				t.Fatalf("engine state after mid-round restores diverges from the uninterrupted run (%d vs %d bytes)", len(got), len(wantEng))
			}
			if got := w.Mon.Snapshot().AppendTo(nil); !bytes.Equal(got, wantMon) {
				t.Fatalf("monitor state after mid-round restores diverges from the uninterrupted run")
			}
		})
	}
}

// TestSoakRestoreRejectsHostileDriver feeds damaged and crafted driver
// blobs — the part of a checkpoint file the soaks decode themselves — to
// all three soaks over otherwise valid layers. Every one must come back as
// an error: a count the remaining bytes cannot hold must not size an
// allocation, and a region or node outside the world must not become an
// index.
func TestSoakRestoreRejectsHostileDriver(t *testing.T) {
	uv := func(xs ...uint64) []byte {
		var b []byte
		for _, x := range xs {
			b = wire.AppendUvarint(b, x)
		}
		return b
	}
	const huge = 1 << 60
	// The quick E11/E13 cells are 3x3: nine rosters of three replicas.
	var rosters []uint64
	for v := uint64(0); v < 9; v++ {
		rosters = append(rosters, 3, 3*v, 3*v+1, 3*v+2)
	}
	with := func(head []uint64, tail ...uint64) []byte {
		return uv(append(append(append([]uint64{}, head...), rosters...), tail...)...)
	}
	head := []uint64{1, 0, 0, 0, 9} // vr churn joins resets |rosters|; E11 appends latencies and arrivals
	e11, e13 := e11Desc.Grid(true)[0], e13Desc.Grid(true)[0]
	cases := []struct {
		exp, name string
		p         harness.Params
		driver    []byte
	}{
		{"E13", "joiner count", e13, with(head, huge)},
		{"E13", "joiner region", e13, with(head, 1, 9)},
		{"E13", "roster length", e13, uv(1, 0, 0, 0, 9, huge)},
		{"E13", "roster node", e13, uv(1, 0, 0, 0, 9, 1, 36, 0, 0, 0, 0, 0, 0, 0, 0, 0)},
		{"E13", "trailing bytes", e13, with(head, 0, 7)},
		{"E11", "roster length", e11, uv(1, 0, 0, 0, 9, huge)},
		{"E11", "joiner count", e11, with(head, huge)},
		{"E11", "joiner region", e11, with(head, 1, 9, 0, 1)},
		{"E11", "roster node", e11, uv(1, 0, 0, 0, 9, 1, huge, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)},
		{"E11", "latency count", e11, with(head, 0, huge)},
		{"E11", "truncated", e11, uv(1, 0, 0)},
		{"E14", "empty", harness.Params{Ints: map[string]int{"devices": 200, "cols": 3, "rows": 3, "vrounds": 2}}, nil},
		{"E14", "trailing bytes", harness.Params{Ints: map[string]int{"devices": 200, "cols": 3, "rows": 3, "vrounds": 2}}, uv(1, 1)},
	}
	for _, c := range cases {
		c := c
		t.Run(c.exp+"/"+c.name, func(t *testing.T) {
			mk := func() Soak {
				s, err := NewSoak(c.exp, &harness.Cell{Params: c.p, Seed: 1}, 0)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			src := mk()
			src.StepVRound()
			cp := src.Checkpoint()
			if err := mk().Restore(cp); err != nil {
				t.Fatalf("the unmodified checkpoint does not restore: %v", err)
			}
			cp.Driver = c.driver
			if err := mk().Restore(cp); err == nil {
				t.Fatal("Restore accepted the hostile driver blob")
			}
		})
	}
}

// TestSoakRestoreRejectsOtherMedium: a soak checkpoint whose medium
// fingerprint is not the rebuilt medium's is refused, with the medium named.
func TestSoakRestoreRejectsOtherMedium(t *testing.T) {
	mk := func() Soak {
		s, err := NewSoak("E13", &harness.Cell{Params: e13Desc.Grid(true)[0], Seed: 1}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	src := mk()
	src.StepVRound()
	cp := src.Checkpoint()
	cp.Medium = append([]byte(nil), cp.Medium...)
	cp.Medium[0] ^= 1
	if err := mk().Restore(cp); err == nil || !strings.Contains(err.Error(), "medium") {
		t.Fatalf("Restore of a checkpoint with another medium fingerprint: err %v, want the medium named", err)
	}
}
