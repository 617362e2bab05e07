package experiments

import (
	"slices"
	"testing"

	"vinfra/internal/cd"
	"vinfra/internal/cha"
	"vinfra/internal/geo"
	"vinfra/internal/harness"
	"vinfra/internal/radio"
	"vinfra/internal/spec"
	"vinfra/internal/vi"
)

// gridRows runs d's grid at seed 1 through the harness — the rows
// `chabench -only <d.ID>` reports (with -quick when quick) — so a test
// asserts on the typed values the report carries, not on a rendered table.
func gridRows(t *testing.T, d harness.Descriptor, quick bool) []harness.Row {
	t.Helper()
	suite, err := harness.Run(harness.Options{Only: d.ID, Quick: quick, Seeds: []int64{1}})
	if err != nil {
		t.Fatal(err)
	}
	var rows []harness.Row
	for _, c := range suite.Experiments[0].Cells {
		rows = append(rows, c.Rows...)
	}
	return rows
}

// column returns column j of rows as T (int64, float64, bool or string —
// the types harness.Value carries); a value of another type fails the test.
func column[T any](t *testing.T, rows []harness.Row, j int) []T {
	t.Helper()
	out := make([]T, len(rows))
	for i, r := range rows {
		v, ok := r[j].V.(T)
		if !ok {
			t.Fatalf("row %d column %d: %#v is not a %T", i, j, r[j].V, v)
		}
		out[i] = v
	}
	return out
}

// allEqual reports whether every element of xs equals want.
func allEqual[T comparable](xs []T, want T) bool {
	for _, x := range xs {
		if x != want {
			return false
		}
	}
	return true
}

// increasing reports whether xs is strictly increasing.
func increasing[T int64 | float64](xs []T) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			return false
		}
	}
	return true
}

func TestFigure2MatchesPaper(t *testing.T) {
	rows := RunFigure2()
	if len(rows) != len(Figure2Expected) {
		t.Fatalf("got %d rows, want %d", len(rows), len(Figure2Expected))
	}
	for i, row := range rows {
		if row != Figure2Expected[i] {
			t.Errorf("row %d: got %+v, want %+v", i, row, Figure2Expected[i])
		}
	}
}

// TestFigure2BallotLossRow pins the all-crosses row of Figure 2 directly
// at the core, independent of RunFigure2's check-mark reconstruction: a
// silent ballot slot (DropAll, no collision signalled) designates the
// instance red per Figure 1 lines 29–32, the observer outputs bottom, and
// — red being the bottom of the downgrade lattice — a later clean veto
// phase cannot lift it back.
func TestFigure2BallotLossRow(t *testing.T) {
	const observer = 1
	adv := &radio.Script{}
	adv.DropAll(0, observer)
	c := newCluster(clusterOpts{
		n:         2,
		detector:  cd.EventuallyAC{Racc: 1000},
		adversary: adv,
	})
	c.runInstances(1)
	obs := c.replicas[observer]
	if got := obs.Core().Status(1); got != cha.Red {
		t.Fatalf("observer color after a silent ballot slot = %v, want red", got)
	}
	// The Figure-2 output is ⊥ for any non-green instance; the internal
	// best estimate must also assign ⊥ to the red instance.
	h := obs.Core().CalculateHistory()
	if _, ok := h.At(1); ok {
		t.Fatalf("red observer's history estimate includes instance 1: %v", h)
	}
	if want := (Figure2Row{Color: cha.Red}); RunFigure2()[3] != want {
		t.Fatalf("Figure 2 row 4 = %+v, want %+v (all crosses, red, bottom)", RunFigure2()[3], want)
	}
}

func TestFigure2TableRenders(t *testing.T) {
	rows := gridRows(t, e1Desc, true)
	if len(rows) != 4 {
		t.Fatalf("Figure 2 has %d rows", len(rows))
	}
	if matches := column[bool](t, rows, 5); !allEqual(matches, true) {
		t.Errorf("Figure 2 'matches paper' column = %v, want all true", matches)
	}
}

func TestOverheadVsNShape(t *testing.T) {
	// Theorem 14's shape: CHAP flat, RSM growing.
	rows := gridRows(t, e2aDesc, true)
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	if r := column[float64](t, rows, 1); !allEqual(r, cha.RoundsPerInstance) {
		t.Errorf("CHAP rounds per instance = %v, want %d at every n", r, cha.RoundsPerInstance)
	}
	if b := column[int64](t, rows, 2); !allEqual(b, b[0]) {
		t.Errorf("CHAP max message size depends on n: %v", b)
	}
	if r := column[float64](t, rows, 3); !increasing(r) {
		t.Errorf("RSM rounds per decision should grow with n: %v", r)
	}
	// Validate the underlying quantities directly.
	c2 := newCluster(clusterOpts{n: 2, fixedWidth: true})
	c2.runInstances(10)
	c8 := newCluster(clusterOpts{n: 8, fixedWidth: true})
	c8.runInstances(10)
	if c2.eng.Stats().MaxMessageSize != c8.eng.Stats().MaxMessageSize {
		t.Error("CHAP message size should not depend on n")
	}
	r2, _ := rsmRun(2, 10, nil, 1)
	r8, _ := rsmRun(8, 10, nil, 1)
	if !(r2 < r8) {
		t.Errorf("RSM rounds should grow with n: %v vs %v", r2, r8)
	}
}

func TestOverheadVsLengthShape(t *testing.T) {
	chapShort := func(l int) int {
		c := newCluster(clusterOpts{n: 3, fixedWidth: true})
		c.runInstances(l)
		return c.eng.Stats().MaxMessageSize
	}
	if chapShort(10) != chapShort(100) {
		t.Error("CHAP message size grew with execution length")
	}
	naive10 := naiveMaxMessage(3, 10)
	naive100 := naiveMaxMessage(3, 100)
	if !(naive10 < naive100) {
		t.Error("naive message size should grow with execution length")
	}
}

func TestColorSpreadNeverExceedsOne(t *testing.T) {
	// Property 4 / Lemma 5 at every loss rate of the sweep, the clean
	// channel (p=0) included.
	rows := gridRows(t, e3Desc, true)
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	for i, spread := range column[int64](t, rows, 5) {
		if spread > 1 {
			t.Errorf("loss %s: max color spread %d exceeds one shade", rows[i][0].Text, spread)
		}
	}
	if v := column[int64](t, rows, 6); !allEqual(v, 0) {
		t.Errorf("color spread violations = %v, want all 0", v)
	}
}

func TestCorrectnessCampaignClean(t *testing.T) {
	rows := gridRows(t, e4Desc, true)
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for j := 2; j <= 4; j++ { // agreement, validity, spread
		if v := column[int64](t, rows, j); !allEqual(v, 0) {
			t.Errorf("%q per r_cf = %v, want all 0", e4Desc.Columns[j], v)
		}
	}
	if live := column[float64](t, rows, 5); !allEqual(live, 1) {
		t.Errorf("liveness-ok fraction per r_cf = %v, want all 1", live)
	}
}

func TestEmulationOverheadTables(t *testing.T) {
	density := gridRows(t, e5aDesc, true)
	if len(density) != 4 {
		t.Fatalf("density rows = %d, want 4", len(density))
	}
	s, perVRound := column[int64](t, density, 2), column[int64](t, density, 3)
	for i, measured := range column[float64](t, density, 4) {
		if perVRound[i] != s[i]+12 || measured != float64(perVRound[i]) {
			t.Errorf("%s: s=%d, rounds/vround=%d, measured=%v; want s+12 both times",
				density[i][0].Text, s[i], perVRound[i], measured)
		}
	}
	replicas := gridRows(t, e5bDesc, true)
	if len(replicas) != 2 {
		t.Fatalf("replica rows = %d, want 2", len(replicas))
	}
	if r := column[float64](t, replicas, 1); !allEqual(r, r[0]) {
		t.Errorf("rounds per vround depends on replicas: %v", r)
	}
	// Direct checks of the claim: rounds per vround equals s+12 and is
	// independent of replicas.
	one := spec.Grid{Cols: 1, Rows: 1}
	w1 := buildWorld(spec.Spec{Grid: one, Devices: spec.Devices{Replicas: 1}})
	w4 := buildWorld(spec.Spec{Grid: one, Devices: spec.Devices{Replicas: 4}})
	if w1.RoundsPerVRound() != w4.RoundsPerVRound() {
		t.Error("rounds per vround depends on replicas")
	}
	if got := w1.RoundsPerVRound(); got != w1.Dep.Schedule().Len()+12 {
		t.Errorf("rounds per vround = %d, want s+12", got)
	}
}

func TestChurnSurvivalAvailability(t *testing.T) {
	// Quick grid: one replica of three replaced every 4 of 20 virtual
	// rounds. The virtual node must survive every turnover (no reset) and
	// every arrival must get to join.
	rows := gridRows(t, e6Desc, true)
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	if got := rows[0][1].V; got != int64(4) {
		t.Errorf("turnovers = %v, want 4", got)
	}
	if got := rows[0][4].V; got != int64(0) {
		t.Errorf("resets = %v: the virtual node died under slow churn", got)
	}
	if got := column[float64](t, rows, 2)[0]; got <= 0 {
		t.Errorf("availability %v under slow churn", got)
	}
	// Re-run to assert availability stays reasonable under slow churn.
	w := buildWorld(spec.Spec{Seed: 6, Grid: spec.Grid{Cols: 1, Rows: 1}, Leader: "regional"})
	attachPinger(w, geo.Point{X: 1.2, Y: -1})
	stepVRounds(w, 30)
	if got := w.Report(0).Availability; got < 0.5 {
		t.Errorf("availability %v under no churn with backoff CM", got)
	}
}

func TestBaselineVIComparisonShape(t *testing.T) {
	// CHAP's cost is replica-independent; RSM's grows. With s=1 the
	// crossover is at n+4 > 13, i.e. n > 9 — between the quick grid's 3
	// and 15 replicas.
	rows := gridRows(t, e7aDesc, true)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	if r := column[float64](t, rows, 1); !allEqual(r, r[0]) {
		t.Errorf("CHAP rounds per vround depends on replicas: %v", r)
	}
	if ratio := column[float64](t, rows, 3); !(ratio[0] < 1 && ratio[1] > 1) {
		t.Errorf("RSM/CHAP = %v, want the crossover between 3 and 15 replicas", ratio)
	}
	chap := buildWorld(spec.Spec{Grid: spec.Grid{Cols: 1, Rows: 1}}).RoundsPerVRound()
	small, _ := rsmRun(3, 6, nil, 3)
	big, _ := rsmRun(15, 6, nil, 15)
	if !(2+small < float64(chap) && 2+big > float64(chap)) {
		t.Errorf("expected crossover: chap=%d rsm(3)=%v rsm(15)=%v", chap, 2+small, 2+big)
	}
}

func TestStateTransferCostGrowsWithGap(t *testing.T) {
	rows := gridRows(t, e7bDesc, true)
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	if gaps := column[int64](t, rows, 0); !increasing(gaps) {
		t.Fatalf("gap sweep not increasing: %v", gaps)
	}
	if bytes := column[int64](t, rows, 1); !increasing(bytes) {
		t.Errorf("join-ack bytes should grow with the un-checkpointed gap: %v", bytes)
	}
}

func TestDetectorAblationShape(t *testing.T) {
	// The full grid: its 100 instances run past r_cf=90, which the quick
	// grid's 25 do not, so only here can any detector be live.
	rows := gridRows(t, e8aDesc, false)
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	names, agr := column[string](t, rows, 0), column[int64](t, rows, 2)
	for i, liveness := range column[string](t, rows, 4) {
		switch names[i] {
		case "eventually-AC (paper)":
			// The paper's detector must be clean and live.
			if agr[i] != 0 || liveness != "ok" {
				t.Errorf("paper detector: %d agreement violations, liveness %q", agr[i], liveness)
			}
		case "null (no detection)":
			if agr[i] == 0 {
				t.Error("null detector kept agreement: the ablation shows nothing")
			}
		}
	}
}

func TestCMAblationShape(t *testing.T) {
	rows := gridRows(t, e8bDesc, true)
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	for i, mgr := range column[string](t, rows, 0) {
		// The oracle stabilizes at instance 1; backoff pays an election
		// first but must stabilize too ("-" would not be an int64).
		kst, ok := rows[i][2].V.(int64)
		if !ok || mgr == "oracle" && kst != 1 {
			t.Errorf("%s n=%s: stabilization k_st = %v", mgr, rows[i][1].Text, rows[i][2].V)
		}
	}
}

func TestCheckpointAblationShape(t *testing.T) {
	rows := gridRows(t, e8cDesc, true)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	if plain := column[int64](t, rows, 1); !increasing(plain) {
		t.Errorf("plain retained entries should grow with L: %v", plain)
	}
	for i, retained := range column[int64](t, rows, 2) {
		if retained > 4 {
			t.Errorf("L=%s: checkpointed replica retains %d entries", rows[i][0].Text, retained)
		}
	}
	if agree := column[bool](t, rows, 3); !allEqual(agree, true) {
		t.Errorf("checkpoint digest agreement = %v, want all true", agree)
	}
	// Direct assertion of the claim.
	plain := newCluster(clusterOpts{n: 3, seed: 2})
	plain.runInstances(200)
	ckpt := newCluster(clusterOpts{n: 3, seed: 2, checkpoint: true})
	ckpt.runInstances(200)
	if plain.replicas[0].Core().Retained() <= ckpt.replicas[0].Core().Retained() {
		t.Error("checkpointing did not reduce retained state")
	}
	if ckpt.replicas[0].Core().Retained() > 4 {
		t.Errorf("checkpointed replica retains %d entries", ckpt.replicas[0].Core().Retained())
	}
}

func TestRoundsUnderLossShape(t *testing.T) {
	rows := gridRows(t, e2cDesc, true)
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	// A clean channel decides every instance in exactly three rounds, and
	// loss only ever costs decisions.
	rate := column[float64](t, rows, 2)
	if perDecided := column[float64](t, rows, 1); perDecided[0] != cha.RoundsPerInstance || rate[0] != 1 {
		t.Errorf("p=0: %v rounds per decided instance at rate %v, want %d at 1", perDecided[0], rate[0], cha.RoundsPerInstance)
	}
	for i := 1; i < len(rate); i++ {
		if rate[i] > rate[i-1] {
			t.Errorf("decided rate rose with loss: %v", rate)
		}
	}
}

// TestCityTable is E14's shape: the quick 2k/5x5 city on one shard and on
// eight reports one row whose match column says the two runs' checkpoint
// digests agree, and whose simulated quantities are what the deployment
// implies — every virtual node up, traffic across the shard boundaries,
// and a round count that is the schedule's. Columns are read by name, as
// CI reads match.
func TestCityTable(t *testing.T) {
	rows := gridRows(t, e14Desc, true)
	col := func(name string) int {
		i := slices.Index(e14Desc.Columns, name)
		if i < 0 {
			t.Fatalf("E14 has no %q column: %v", name, e14Desc.Columns)
		}
		return i
	}
	if len(rows) != 1 || len(rows[0]) != len(e14Desc.Columns) {
		t.Fatalf("got %d rows of %d columns, want 1 row of %d", len(rows), len(rows[0]), len(e14Desc.Columns))
	}
	if match := column[bool](t, rows, col("match"))[0]; !match {
		t.Error("the 1-shard and 8-shard runs diverged")
	}
	if avail := column[float64](t, rows, col("availability"))[0]; avail != 1 {
		t.Errorf("availability = %v, want 1", avail)
	}
	if halo := column[int64](t, rows, col("halo tx"))[0]; halo <= 0 {
		t.Errorf("halo tx = %d: the 8-shard run handed nothing across a boundary", halo)
	}
	p := e14Desc.Grid(true)[0]
	locs := geo.Grid{Spacing: citySpacing, Cols: p.Int("cols"), Rows: p.Int("rows")}.Locations()
	per := vi.Timing{S: vi.BuildSchedule(locs, Radii).Len()}.RoundsPerVRound()
	if got, want := column[int64](t, rows, col("rounds"))[0], int64(p.Int("vrounds")*per); got != want {
		t.Errorf("rounds = %d, want vrounds x RoundsPerVRound = %d", got, want)
	}
}
