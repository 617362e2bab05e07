package experiments

import (
	"strings"
	"testing"

	"vinfra/internal/cd"
	"vinfra/internal/cha"
	"vinfra/internal/geo"
	"vinfra/internal/radio"
	"vinfra/internal/sim"
	"vinfra/internal/spec"
)

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
	if h := obs.Core().CalculateHistory(); h.Includes(1) {
		t.Fatalf("red observer's history estimate includes instance 1: %v", h)
	}
	if want := (Figure2Row{Color: cha.Red}); RunFigure2()[3] != want {
		t.Fatalf("Figure 2 row 4 = %+v, want %+v (all crosses, red, bottom)", RunFigure2()[3], want)
	}
}

func TestFigure2TableRenders(t *testing.T) {
	tb := Figure2Table()
	if tb.NumRows() != 4 {
		t.Fatalf("Figure 2 table has %d rows", tb.NumRows())
	}
	var sb strings.Builder
	tb.Render(&sb)
	for _, line := range strings.Split(sb.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 6 && (fields[0] == "ok" || fields[0] == "X") {
			if fields[5] != "yes" {
				t.Errorf("Figure 2 row does not match the paper: %q", line)
			}
		}
	}
}

func TestOverheadVsNShape(t *testing.T) {
	// Theorem 14's shape: CHAP flat, RSM growing.
	tb := OverheadVsN([]int{2, 8}, 10)
	if tb.NumRows() != 2 {
		t.Fatal("wrong row count")
	}
	// Validate the underlying quantities directly.
	c2 := newCluster(clusterOpts{n: 2, fixedWidth: true})
	c2.runInstances(10)
	c8 := newCluster(clusterOpts{n: 8, fixedWidth: true})
	c8.runInstances(10)
	if c2.eng.Stats().MaxMessageSize != c8.eng.Stats().MaxMessageSize {
		t.Error("CHAP message size should not depend on n")
	}
	r2, _ := rsmRoundsPerDecision(2, 10, nil, 1)
	r8, _ := rsmRoundsPerDecision(8, 10, nil, 1)
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
	naive10, _ := naiveMaxMessage(3, 10)
	naive100, _ := naiveMaxMessage(3, 100)
	if !(naive10 < naive100) {
		t.Error("naive message size should grow with execution length")
	}
}

func TestColorSpreadNeverExceedsOne(t *testing.T) {
	tb := ColorSpread(5, []float64{0, 0.4, 0.8}, 60)
	var sb strings.Builder
	tb.Render(&sb)
	out := sb.String()
	// The violations column must be all zeros; spot-check by re-running
	// the strongest adversary.
	c := newCluster(clusterOpts{
		n: 5, seed: 67,
	})
	c.runInstances(10)
	rep := c.rec.Report()
	if rep.ColorSpreadViolations != 0 {
		t.Errorf("spread violations: %s", out)
	}
}

func TestCorrectnessCampaignClean(t *testing.T) {
	tb := CorrectnessCampaign(6, []sim.Round{30, 90}, 20)
	var sb strings.Builder
	tb.Render(&sb)
	// Columns 3-5 are violation counts; assert zero by scanning rendered
	// rows (cheap but effective).
	for _, line := range strings.Split(sb.String(), "\n")[3:] {
		fields := strings.Fields(line)
		// Data rows start with the numeric r_cf value.
		if len(fields) < 6 || fields[0] != "30" && fields[0] != "90" {
			continue
		}
		if fields[2] != "0" || fields[3] != "0" || fields[4] != "0" {
			t.Errorf("violations in campaign row: %q", line)
		}
	}
}

func TestEmulationOverheadTables(t *testing.T) {
	ta := EmulationOverheadVsDensity(6)
	if ta.NumRows() != 4 {
		t.Errorf("density table rows = %d", ta.NumRows())
	}
	tb := EmulationOverheadVsReplicas([]int{1, 4}, 6)
	if tb.NumRows() != 2 {
		t.Errorf("replica table rows = %d", tb.NumRows())
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
	tb := ChurnSurvival([]int{6}, 30)
	if tb.NumRows() != 1 {
		t.Fatal("row count")
	}
	// Re-run to assert availability stays reasonable under slow churn.
	w := buildWorld(spec.Spec{Seed: 6, Grid: spec.Grid{Cols: 1, Rows: 1}, Leader: "regional"})
	attachPinger(w, geo.Point{X: 1.2, Y: -1})
	stepVRounds(w, 30)
	if got := w.Mon.Report(0).Availability; got < 0.5 {
		t.Errorf("availability %v under no churn with backoff CM", got)
	}
}

func TestBaselineVIComparisonShape(t *testing.T) {
	tb := BaselineVIComparison([]int{3, 15}, 6)
	if tb.NumRows() != 2 {
		t.Fatal("row count")
	}
	// CHAP's cost is replica-independent; RSM's grows. With s=1 the
	// crossover is at n+4 > 13, i.e. n > 9.
	chap := buildWorld(spec.Spec{Grid: spec.Grid{Cols: 1, Rows: 1}}).RoundsPerVRound()
	small, _ := rsmRoundsPerDecision(3, 6, nil, 3)
	big, _ := rsmRoundsPerDecision(15, 6, nil, 15)
	if !(2+small < float64(chap) && 2+big > float64(chap)) {
		t.Errorf("expected crossover: chap=%d rsm(3)=%v rsm(15)=%v", chap, 2+small, 2+big)
	}
}

func TestStateTransferCostGrowsWithGap(t *testing.T) {
	tb := StateTransferCost([]int{0, 8, 32})
	if tb.NumRows() != 3 {
		t.Fatal("row count")
	}
}

func TestDetectorAblationShape(t *testing.T) {
	tb := DetectorAblation(50)
	if tb.NumRows() != 4 {
		t.Fatal("row count")
	}
	var sb strings.Builder
	tb.Render(&sb)
	out := sb.String()
	// The paper's detector must be clean and live.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "eventually-AC") {
			fields := strings.Fields(line)
			if fields[len(fields)-1] != "ok" {
				t.Errorf("paper detector not live: %q", line)
			}
		}
	}
}

func TestCMAblationShape(t *testing.T) {
	tb := CMAblation(120)
	if tb.NumRows() != 6 {
		t.Errorf("row count = %d", tb.NumRows())
	}
}

func TestCheckpointAblationShape(t *testing.T) {
	tb := CheckpointAblation([]int{50, 200})
	if tb.NumRows() != 2 {
		t.Fatal("row count")
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
	tb := RoundsUnderLoss(4, []float64{0, 0.3}, 40)
	if tb.NumRows() != 2 {
		t.Fatal("row count")
	}
}
