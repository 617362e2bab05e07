package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readRuns loads a result file: one run per line, as --json appends them.
func readRuns(path string) ([]run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []run
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r run
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return out, nil
}

// verdict judges one (workload, end-to-end metric) pair of sample sets by
// the benchmark's own bound: "worse" when b's median is worse than a's by
// more than the bound; "unresolved" when either set's interquartile spread
// is wider than the bound, unless every run of b reads better than every
// run of a; "ok" otherwise.
func verdict(d metricDef, a, b []float64) (string, float64) {
	ma, mb := median(a), median(b)
	change := 0.0 // positive = worse, as a share of a's median
	if ma != 0 {
		change = (mb - ma) / ma
		if d.Better == "higher" {
			change = -change
		}
	}
	sa, sb := sorted(a), sorted(b)
	allBetter := sb[len(sb)-1] < sa[0]
	if d.Better == "higher" {
		allBetter = sb[0] > sa[len(sa)-1]
	}
	switch {
	case change > d.Bound:
		return "worse", change
	case max(spread(a), spread(b)) > d.Bound && !allBetter:
		return "unresolved", change
	}
	return "ok", change
}

// compareFiles prints one row per (workload, end-to-end metric) and
// returns the process exit code: 0 when no row is worse, 1 when one is or a
// run was incorrect, 2 when the sets cannot be compared at all.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readRuns(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readRuns(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return compareSets(w, a, b)
}

func compareSets(w io.Writer, a, b []run) int {
	sa, sb := a[0].Stamp, b[0].Stamp
	if sa.NProc != sb.NProc || sa.GOMAXPROCS != sb.GOMAXPROCS {
		// Host-time numbers from machines of different width say nothing
		// about the code (the cpus=1 baseline problem).
		fmt.Fprintf(os.Stderr, "bench: refusing to compare: nproc/GOMAXPROCS %d/%d vs %d/%d\n",
			sa.NProc, sa.GOMAXPROCS, sb.NProc, sb.GOMAXPROCS)
		return 2
	}
	// values[side][workload][metric] in run order; untraced runs only.
	collect := func(runs []run) (map[string]map[string][]float64, bool) {
		out, correct := map[string]map[string][]float64{}, true
		for _, r := range runs {
			correct = correct && r.Result.Correct
			if r.Traced {
				continue
			}
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Result.Metrics {
				out[r.Workload][name] = append(out[r.Workload][name], m.Value)
			}
		}
		return out, correct
	}
	va, okA := collect(a)
	vb, okB := collect(b)
	code := 0
	if !okA || !okB {
		fmt.Fprintln(w, "a run in one of the sets was incorrect")
		code = 1
	}
	fmt.Fprintf(w, "%-18s %-18s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median a", "median b", "change", "spread a", "spread b", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			xa, xb := va[wl.name][d.Name], vb[wl.name][d.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v, change := verdict(d, xa, xb)
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(w, "%-18s %-18s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				wl.name, d.Name, median(xa), median(xb), 100*change, 100*spread(xa), 100*spread(xb), 100*d.Bound, v)
		}
	}
	return code
}
