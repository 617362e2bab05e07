package harness_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	_ "vinfra/internal/experiments" // registers E1..E14
	"vinfra/internal/harness"
)

func TestRegistryComplete(t *testing.T) {
	all := harness.All()
	if len(all) != 20 {
		t.Fatalf("registry has %d descriptors, want 20 (E1..E14 sub-tables; there is no E10)", len(all))
	}
	groups := map[string]bool{}
	for _, d := range all {
		groups[d.Group] = true
	}
	for _, g := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E11", "E12", "E13", "E14"} {
		if !groups[g] {
			t.Errorf("group %s not registered", g)
		}
	}
	// Natural order: E1 first, E14 last (lexical order would put E11 second).
	if all[0].ID != "E1" || all[len(all)-1].ID != "E14" {
		ids := make([]string, len(all))
		for i, d := range all {
			ids[i] = d.ID
		}
		t.Errorf("registry order: %v", ids)
	}
}

func TestSelect(t *testing.T) {
	for _, tc := range []struct {
		only string
		want int
	}{
		{"", 20},
		{"E2", 3},
		{"e2a", 1},
		{"E2a,E11", 2},
		{"E1, e9", 3},
	} {
		got, err := harness.Select(tc.only)
		if err != nil {
			t.Fatalf("Select(%q): %v", tc.only, err)
		}
		if len(got) != tc.want {
			t.Errorf("Select(%q) = %d descriptors, want %d", tc.only, len(got), tc.want)
		}
	}
	if _, err := harness.Select("E99"); err == nil {
		t.Error("Select(E99) did not fail")
	}
	if _, err := harness.Select("E2,bogus"); err == nil {
		t.Error("Select with one bad token did not fail")
	}
}

// TestSelectErrorDeterministic pins the maporder fix in Select: with
// several unknown tokens the error text used to name whichever one map
// iteration served first. The message must now list all unknown tokens,
// sorted, identically on every call.
func TestSelectErrorDeterministic(t *testing.T) {
	const tokens = "zz,E2,mm,aa"
	_, err := harness.Select(tokens)
	if err == nil {
		t.Fatalf("Select(%q) did not fail", tokens)
	}
	first := err.Error()
	// All three unknown tokens (canonicalized to upper case), sorted, and
	// only those — the valid E2 must not leak into the quoted list.
	if !strings.Contains(first, `"AA,MM,ZZ"`) {
		t.Errorf(`error %q does not quote exactly the unknown tokens sorted (want "AA,MM,ZZ")`, first)
	}
	for i := 0; i < 20; i++ {
		_, err := harness.Select(tokens)
		if err == nil || err.Error() != first {
			t.Fatalf("Select(%q) error changed across calls:\n  %q\n  %v", tokens, first, err)
		}
	}
}

func TestGridColumnsMatchRows(t *testing.T) {
	// Every descriptor's first quick cell must produce rows matching its
	// column count (the registry contract the JSON report relies on).
	for _, d := range harness.All() {
		grid := d.Grid(true)
		if len(grid) == 0 {
			t.Errorf("%s: empty quick grid", d.ID)
			continue
		}
		rows := d.Run(&harness.Cell{Params: grid[0], Seed: 1})
		if len(rows) == 0 {
			t.Errorf("%s: cell %q produced no rows", d.ID, grid[0].Label)
		}
		for _, r := range rows {
			if len(r) != len(d.Columns) {
				t.Errorf("%s: row has %d values, want %d columns", d.ID, len(r), len(d.Columns))
			}
		}
	}
}

func TestRunWorkerPoolDeterminism(t *testing.T) {
	render := func(workers int) []byte {
		suite, err := harness.Run(harness.Options{
			Only: "E1,E2b,E7b", Quick: true, Seeds: []int64{1, 2},
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := suite.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seq := render(0)
	par := render(8)
	if !bytes.Equal(seq, par) {
		t.Error("worker-pool output differs from sequential output")
	}
}

func TestValueHelpers(t *testing.T) {
	if v := harness.Float(math.Inf(1)); v.V != nil {
		t.Errorf("Float(+Inf).V = %v, want nil (JSON has no Inf)", v.V)
	}
	if v := harness.Float(math.NaN()); v.V != nil {
		t.Errorf("Float(NaN).V = %v, want nil", v.V)
	}
	if v := harness.Int(7); v.Text != "7" || v.V != int64(7) {
		t.Errorf("Int(7) = %+v", v)
	}
	if v := harness.Bool(true); v.Text != "yes" {
		t.Errorf("Bool(true).Text = %q", v.Text)
	}
}

func TestRenderTextMultiSeedColumn(t *testing.T) {
	suite, err := harness.Run(harness.Options{Only: "E7b", Quick: true, Seeds: []int64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	suite.RenderText(&buf)
	if !strings.Contains(buf.String(), "seed") {
		t.Error("multi-seed run did not render a seed column")
	}
}
