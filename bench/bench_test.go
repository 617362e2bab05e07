package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the tables in
// metrics.go and workloads.go in step: same names, units, directions and
// bounds, in the same order.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q breaks the naming contract", w.name)
		}
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program has %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], want[i])
			}
			if !nameRE.MatchString(want[i].Name) || seen[want[i].Name] {
				t.Errorf("%s metric %q: bad or repeated name", kind, want[i].Name)
			}
			seen[want[i].Name] = true
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	hasSetup := false
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", bj.Paths)
	}
}

// TestEveryWorkloadMini runs each workload at miniature size, untraced and
// traced, and checks what the result line promises: every metric named in
// BENCHMARK.json exactly once with its unit and a finite value, sorted
// output, a correct run, and — traced — spans that nest.
func TestEveryWorkloadMini(t *testing.T) {
	out := t.TempDir()
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			name := wl.name + "/untraced"
			defs := endToEnd
			if traced {
				name, defs = wl.name+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				r := execute(wl, config{seed: 3, seconds: 0.1, traced: traced, mini: true, out: out})
				if !r.Result.Correct || r.Result.Failed != 0 || r.Result.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d notes=%v",
						r.Result.Correct, r.Result.Attempted, r.Result.Failed, r.Notes)
				}
				if len(r.Result.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, want %d", len(r.Result.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := r.Result.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("%s not emitted", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("%s: unit %q, want %q", d.Name, m.Unit, d.Unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s: value %v", d.Name, m.Value)
					case !traced && m.Value <= 0:
						t.Errorf("%s: end-to-end value %v, must be positive", d.Name, m.Value)
					}
				}
				checkPrinted(t, r)
				if traced {
					checkSpans(t, r.tracer.finish())
					if _, err := os.Stat(out + "/trace-" + wl.name + "-seed3.json"); err != nil {
						t.Errorf("span file: %v", err)
					}
				}
			})
		}
	}
}

// checkPrinted checks the human-readable report lists metrics sorted by
// name and ends in the result object with exactly the contract's keys.
func checkPrinted(t *testing.T, r *run) {
	t.Helper()
	var buf bytes.Buffer
	r.print(&buf)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	var names []string
	for _, l := range lines {
		if f := strings.Fields(l); strings.HasPrefix(l, "  ") && len(f) >= 3 {
			if _, ok := r.Result.Metrics[f[0]]; ok {
				names = append(names, f[0])
			}
		}
	}
	if len(names) != len(r.Result.Metrics) || !sort.StringsAreSorted(names) {
		t.Errorf("printed metrics %v: want all %d, sorted", names, len(r.Result.Metrics))
	}
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not a JSON object: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := last[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(last) != 4 {
		t.Errorf("result line has %d keys, want 4", len(last))
	}
}

// checkSpans checks the trace forms one tree: a single root, every child
// inside its parent's interval, no negative self time.
func checkSpans(t *testing.T, spans []span) {
	t.Helper()
	roots := 0
	for _, s := range spans {
		if s.End < s.Start || s.Self < 0 {
			t.Errorf("span %d %s: start %d end %d self %d", s.ID, s.Name, s.Start, s.End, s.Self)
		}
		if s.Parent < 0 {
			roots++
			continue
		}
		if p := spans[s.Parent]; s.Parent >= s.ID || s.Start < p.Start || s.End > p.End {
			t.Errorf("span %d %s [%d,%d] is not inside its parent %d %s [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	if roots != 1 {
		t.Errorf("%d root spans, want 1", roots)
	}
}

// TestExpectationsCoverSeeds checks bench/expect.json pins seeds 1 and 2 of
// every workload, and that the two city workloads pin the same state.
func TestExpectationsCoverSeeds(t *testing.T) {
	exp, err := loadExpectations()
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		for _, seed := range []string{"1", "2"} {
			st, ok := exp[wl.name][seed]
			if !ok || st.Digest == "" || st.VRound != wl.warm {
				t.Errorf("%s seed %s: pinned %+v", wl.name, seed, st)
			}
		}
	}
	for _, seed := range []string{"1", "2"} {
		a, b := exp["city-100k"][seed], exp["city-100k-sharded"][seed]
		if a.withoutHalo() != b.withoutHalo() || b.HaloTransmissions == 0 {
			t.Errorf("seed %s: city-100k %+v and city-100k-sharded %+v should differ in the halo count only", seed, a, b)
		}
	}
	if got := exp.checkPinned("metro-vi", 1, simStats{}); got == "match" || got == "unpinned" {
		t.Errorf("a wrong statistic passed the pin: %s", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v", q1, q2, q3)
	}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread %v, want 1", got)
	}
}

func TestBestBlock(t *testing.T) {
	// Twelve back-to-back operations; the second block of four is the
	// quiet one (1 ms each), the others are disturbed (2 ms, one 9 ms).
	lats := []float64{2, 2, 9, 2, 1, 1, 1, 1, 2, 2, 2, 2}
	var ops []op
	end := 0.0
	for _, l := range lats {
		end += l
		ops = append(ops, op{end: end, lat: l})
	}
	perSec, p50, blocks := bestBlock(ops, 4)
	if perSec != 1000 || p50 != 1 || blocks != 3 {
		t.Errorf("bestBlock = %v/s, %v ms, %d blocks; want 1000, 1, 3", perSec, p50, blocks)
	}
	// A stream shorter than a block is one block.
	if perSec, p50, blocks = bestBlock(ops[:2], 4); perSec != 500 || p50 != 2 || blocks != 1 {
		t.Errorf("short stream: %v/s, %v ms, %d blocks; want 500, 2, 1", perSec, p50, blocks)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "vround_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rounds_per_s", Better: "higher", Bound: 0.10}
	tight := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	wide := []float64{60, 140, 100, 70, 130, 100, 65, 135, 100, 100}
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, tight, tight, "ok"},
		{"slower beyond the bound", lower, tight, scale(tight, 1.2), "worse"},
		{"slower within the bound", lower, tight, scale(tight, 1.05), "ok"},
		{"throughput lost", higher, tight, scale(tight, 0.8), "worse"},
		{"throughput gained", higher, tight, scale(tight, 1.3), "ok"},
		{"spread wider than the bound", lower, wide, wide, "unresolved"},
		{"wide but every run better", lower, wide, scale(tight, 0.5), "ok"},
	} {
		if got, _ := verdict(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareRefusesDifferentWidth(t *testing.T) {
	mk := func(nproc int, v float64) []run {
		var out []run
		for i := 0; i < 4; i++ {
			r := run{Stamp: stamp{NProc: nproc, GOMAXPROCS: nproc}, Workload: "metro-vi", Result: result{Correct: true,
				Metrics: map[string]metric{"vround_ms_p50": {Value: v + float64(i)/100, Unit: "ms"}}}}
			out = append(out, r)
		}
		return out
	}
	var buf bytes.Buffer
	if code := compareSets(&buf, mk(2, 5), mk(8, 5)); code != 2 {
		t.Errorf("different core counts: exit %d, want 2", code)
	}
	if code := compareSets(&buf, mk(2, 5), mk(2, 5)); code != 0 {
		t.Errorf("equal sets: exit %d, want 0\n%s", code, buf.String())
	}
	buf.Reset()
	if code := compareSets(&buf, mk(2, 5), mk(2, 7)); code != 1 || !strings.Contains(buf.String(), "worse") {
		t.Errorf("a 40%% slowdown: exit %d, want 1\n%s", code, buf.String())
	}
}
