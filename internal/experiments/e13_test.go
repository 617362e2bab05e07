package experiments

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"vinfra/internal/harness"
	"vinfra/internal/spec"
)

// TestAdversaryParallelEqualsSequential pins the adversary plane's
// determinism contract: every E13 cell — jammers filtering receivers
// inside the medium, faults striking from the engine loop, monitor
// accounting fed from the parallel Receive fan-out — produces
// byte-identical rows whether the stack runs sequentially or parallel.
func TestAdversaryParallelEqualsSequential(t *testing.T) {
	for _, p := range e13Desc.Grid(true) {
		for _, seed := range []int64{1, 2} {
			p, seed := p, seed
			t.Run(p.Label, func(t *testing.T) {
				t.Parallel()
				par := adversaryRows(&harness.Cell{Params: p, Seed: seed}, true, 0)
				seq := adversaryRows(&harness.Cell{Params: p, Seed: seed}, false, 0)
				if !reflect.DeepEqual(par, seq) {
					t.Fatalf("seed %d: parallel rows diverge from sequential:\npar: %+v\nseq: %+v",
						seed, par, seq)
				}
			})
		}
	}
}

// TestAdversaryCellsDegradeAvailability sanity-checks that the adversaries
// actually bite and the stack absorbs them: the jammer must cost
// availability (it silences whole regions on a duty cycle), while the
// storm's kill-and-respawn churn must keep the deployment largely
// available (the paper's availability claim under hostile churn).
func TestAdversaryCellsDegradeAvailability(t *testing.T) {
	availability := func(kind string) float64 {
		rows := adversaryRows(&harness.Cell{Seed: 1, Params: harness.Params{
			Ints: map[string]int{"cols": 3, "rows": 3, "vrounds": 8},
			Strs: map[string]string{"kind": kind, "intensity": "high"},
		}}, true, 0)
		if len(rows) != 1 {
			t.Fatalf("%s: %d rows", kind, len(rows))
		}
		return rows[0][6].V.(float64)
	}
	jam := availability("jam")
	if jam > 0.8 {
		t.Errorf("high jam availability = %.2f, want a visible dent (<= 0.8)", jam)
	}
	storm := availability("storm")
	if storm < 0.7 {
		t.Errorf("high storm availability = %.2f, want the stack to absorb churn (>= 0.7)", storm)
	}
	if jam >= storm {
		t.Errorf("jam (%.2f) should hurt more than absorbed churn (%.2f)", jam, storm)
	}
}

// jamCellDoc is the checked-in vinfra-spec/v1 document of the E13
// jam/high/3x3 cell at seed 1; internal/service's tests POST the same file
// to visimd.
const jamCellDoc = "testdata/e13_jam_high_3x3.json"

// TestJamCellIsASpecDocument pins what building the soaks on spec.Build
// buys: a jam cell has no closure-carrying faults and no mid-run joiners,
// so its world's spec document alone reproduces it. The document parsed,
// built and stepped with no experiment code attached must match the cell
// layer for layer (engine, medium, monitor snapshots) and report the
// availability the cell's row does.
func TestJamCellIsASpecDocument(t *testing.T) {
	p := e13Desc.Grid(true)[0]
	if p.Label != "jam/high/3x3" {
		t.Fatalf("first quick E13 cell is %q, want jam/high/3x3", p.Label)
	}
	s := newAdversarySoak(&harness.Cell{Params: p, Seed: 1}, true, 0)
	doc := s.w.Spec.JSON()
	want, err := os.ReadFile(jamCellDoc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc, want) {
		t.Fatalf("the cell's spec document drifted from %s:\n%s", jamCellDoc, doc)
	}

	parsed, err := spec.Parse(doc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	bare, err := spec.Build(parsed)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer bare.Eng.Close()
	for s.VRound() < s.VRounds() {
		s.StepVRound()
		bare.StepVRound()
	}
	if bare.VRound() != bare.VRounds() {
		t.Fatalf("document horizon is %d vrounds, the cell ran %d", bare.VRounds(), bare.VRound())
	}
	got, cell := bare.Checkpoint(), s.Checkpoint()
	if !bytes.Equal(got.Engine.AppendTo(nil), cell.Engine.AppendTo(nil)) {
		t.Error("engine snapshot of the bare document diverges from the cell")
	}
	if !bytes.Equal(got.Medium, cell.Medium) {
		t.Error("medium fingerprint of the bare document diverges from the cell")
	}
	if !bytes.Equal(got.Monitor.AppendTo(nil), cell.Monitor.AppendTo(nil)) {
		t.Error("monitor snapshot of the bare document diverges from the cell")
	}
	if row := s.Rows()[0][6].V.(float64); bare.Summary().MeanAvailability != row {
		t.Errorf("bare document availability %v, cell row %v", bare.Summary().MeanAvailability, row)
	}
}
