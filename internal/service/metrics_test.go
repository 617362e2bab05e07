package service

import (
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
)

// family is one metric family of a /metrics scrape: its type and its
// samples, each series' value as written and as a number.
type family struct {
	typ    string
	raw    map[string]string
	values map[string]float64
}

// parseMetrics parses a Prometheus text exposition strictly: each family
// opens with its "# HELP" line, then its "# TYPE" line (counter or gauge),
// then its samples, all of that family; no family opens twice and no series
// appears twice. It returns the families by name.
func parseMetrics(t *testing.T, body string) map[string]*family {
	t.Helper()
	fams := map[string]*family{}
	var cur *family
	var curName string
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, _ := strings.Cut(rest, " ")
			if _, dup := fams[name]; dup || help == "" {
				t.Fatalf("line %d: %q: a family opens once, with help text", i+1, line)
			}
			i++
			if i == len(lines) || !strings.HasPrefix(lines[i], "# TYPE "+name+" ") {
				t.Fatalf("line %d: # HELP %s is not followed by its # TYPE", i, name)
			}
			typ := strings.TrimPrefix(lines[i], "# TYPE "+name+" ")
			if typ != "counter" && typ != "gauge" {
				t.Fatalf("line %d: family %s has type %q", i+1, name, typ)
			}
			cur = &family{typ: typ, raw: map[string]string{}, values: map[string]float64{}}
			fams[name], curName = cur, name
			continue
		}
		series, raw, ok := strings.Cut(line, " ")
		metric, _, _ := strings.Cut(series, "{")
		switch {
		case !ok || strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: %q is neither a family header nor a sample", i+1, line)
		case cur == nil || metric != curName:
			t.Fatalf("line %d: sample %q outside its family's # HELP and # TYPE", i+1, line)
		}
		if _, dup := cur.raw[series]; dup {
			t.Fatalf("line %d: series %s appears twice", i+1, series)
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			t.Fatalf("line %d: %q: %v", i+1, line, err)
		}
		cur.raw[series], cur.values[series] = raw, v
	}
	return fams
}

// TestMetricsCounters is the /metrics contract, read over a real HTTP
// server as a scraper reads it. The visimd smoke world (a fault-free 2x2
// grid) is scraped right after it is created and again after a 50-vround
// step. Both scrapes parse strictly (parseMetrics); the families and their
// types are exactly those testdata/metric_families.txt lists, one "name
// type" a line; every counter series of the first scrape is in the second,
// no smaller; the world's radio rounds and wire bytes grew; it reads 50 of
// its 50-vround horizon; and each of its four virtual nodes reads
// availability 1.0000.
func TestMetricsCounters(t *testing.T) {
	svc := newService(t, "")
	srv := httptest.NewServer(svc)
	t.Cleanup(srv.Close)
	doc, err := os.ReadFile("../../cmd/visimd/testdata/smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	listed, err := os.ReadFile("testdata/metric_families.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{} // family → type
	for _, line := range strings.Split(strings.TrimSpace(string(listed)), "\n") {
		name, typ, ok := strings.Cut(line, " ")
		if _, dup := want[name]; !ok || dup {
			t.Fatalf("testdata/metric_families.txt: %q is not a new \"name type\" line", line)
		}
		want[name] = typ
	}

	post := func(path, body string, code int) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != code {
			msg, _ := io.ReadAll(resp.Body)
			t.Fatalf("POST %s: status %d (want %d): %s", path, resp.StatusCode, code, msg)
		}
	}
	scrape := func() map[string]*family {
		t.Helper()
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
			t.Fatalf("GET /metrics: status %d, content type %q", resp.StatusCode, ct)
		}
		fams := parseMetrics(t, string(body))
		got := map[string]string{}
		for name, f := range fams {
			got[name] = f.typ
		}
		if !maps.Equal(got, want) {
			t.Fatalf("metric families %v, want those in testdata/metric_families.txt: %v", got, want)
		}
		return fams
	}

	post("/v1/sims", `{"name": "smoke", "spec": `+string(doc)+`}`, http.StatusCreated)
	before := scrape()
	post("/v1/sims/smoke/step", `{"vrounds": 50}`, http.StatusOK)
	after := scrape()

	for name, f := range before {
		if f.typ != "counter" {
			continue
		}
		for series, v := range f.values {
			if w, ok := after[name].values[series]; !ok || w < v {
				t.Errorf("counter %s went from %g to %g (present: %v)", series, v, w, ok)
			}
		}
	}
	for _, c := range []string{"vinfra_sim_rounds_total", "vinfra_sim_wire_bytes_total"} {
		series := c + `{sim="smoke"}`
		if after[c].values[series] <= before[c].values[series] {
			t.Errorf("%s did not grow over the step: %g then %g", series, before[c].values[series], after[c].values[series])
		}
	}
	if got := after["vinfra_sim_vround"].raw[`vinfra_sim_vround{sim="smoke"}`]; got != "50" {
		t.Errorf(`vinfra_sim_vround{sim="smoke"} reads %q after the step, want 50`, got)
	}
	if got := after["vinfra_sim_vrounds"].raw[`vinfra_sim_vrounds{sim="smoke"}`]; got != "50" {
		t.Errorf(`vinfra_sim_vrounds{sim="smoke"} reads %q, want smoke.json's horizon of 50`, got)
	}
	avail := after["vinfra_vnode_availability"].raw
	if len(avail) != 4 {
		t.Fatalf("%d vinfra_vnode_availability samples, want the smoke world's 4: %v", len(avail), avail)
	}
	for series, v := range avail {
		if !strings.HasPrefix(series, `vinfra_vnode_availability{sim="smoke",`) || v != "1.0000" {
			t.Errorf("%s %s, want the smoke world at 1.0000", series, v)
		}
	}
}
