// Package harness is the registry-based experiment runner behind
// cmd/chabench. Every experiment of the reproduction suite (E1–E14)
// registers a Descriptor — a name, a parameter grid, a seed list and a run
// function returning typed rows — instead of printing an ad-hoc table. The
// harness fans experiment×parameter×seed cells out over a bounded worker
// pool (the sim.WithParallel idiom: fixed workers, results merged in
// registration order, so output is byte-identical to a sequential run),
// renders the classic text tables (Table), and emits the same rows as a
// machine-readable JSON report. Every value in a table is a
// simulated quantity; host time is measured by bench/ alone.
package harness

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Value is one typed table cell: the exact text rendered in the classic
// table plus the typed value emitted in the JSON report.
type Value struct {
	Text string
	V    any // int64, float64, bool, string or nil
}

// Row is one typed result row, in column order.
type Row []Value

// Int is an exact integer value.
func Int(v int) Value { return Value{Text: strconv.Itoa(v), V: int64(v)} }

// Float is a float rendered with two decimals (the suite's default).
// Non-finite values keep their text but marshal as null (JSON has no Inf).
func Float(v float64) Value { return Value{Text: F(v), V: finite(v)} }

// FloatText is a float with a custom text rendering (e.g. "%.1f", "5/30").
func FloatText(text string, v float64) Value { return Value{Text: text, V: finite(v)} }

func finite(v float64) any {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil
	}
	return v
}

// Str is a plain string value.
func Str(s string) Value { return Value{Text: s, V: s} }

// Bool renders as yes/no.
func Bool(v bool) Value { return Value{Text: B(v), V: v} }

// Params is one point of an experiment's parameter grid.
type Params struct {
	Label  string // cell label, e.g. "n=8"
	Ints   map[string]int
	Floats map[string]float64
	Strs   map[string]string
}

// Int returns a required integer parameter.
func (p Params) Int(k string) int {
	v, ok := p.Ints[k]
	if !ok {
		panic(fmt.Sprintf("harness: cell %q missing int param %q", p.Label, k))
	}
	return v
}

// Float returns a required float parameter.
func (p Params) Float(k string) float64 {
	v, ok := p.Floats[k]
	if !ok {
		panic(fmt.Sprintf("harness: cell %q missing float param %q", p.Label, k))
	}
	return v
}

// Str returns a required string parameter.
func (p Params) Str(k string) string {
	v, ok := p.Strs[k]
	if !ok {
		panic(fmt.Sprintf("harness: cell %q missing string param %q", p.Label, k))
	}
	return v
}

// Map flattens the parameters into a single map for the JSON report
// (encoding/json sorts the keys, so the rendering is deterministic).
func (p Params) Map() map[string]any {
	if len(p.Ints)+len(p.Floats)+len(p.Strs) == 0 {
		return nil
	}
	m := make(map[string]any, len(p.Ints)+len(p.Floats)+len(p.Strs))
	for k, v := range p.Ints {
		m[k] = v
	}
	for k, v := range p.Floats {
		m[k] = v
	}
	for k, v := range p.Strs {
		m[k] = v
	}
	return m
}

// Cell is the execution context handed to a Descriptor's Run function: one
// parameter-grid point at one seed. Run functions derive every internal
// random seed from Seed (convention: base := (Seed-1)*7919 added to the
// historical constants, so seed 1 reproduces the pre-harness tables).
type Cell struct {
	Params Params
	Seed   int64
}

// Base is the per-seed offset mixed into the historical in-experiment seed
// constants: zero for seed 1 (reproducing the original tables), distinct
// otherwise.
func (c *Cell) Base() int64 { return (c.Seed - 1) * 7919 }

// Descriptor registers one experiment table with the harness.
type Descriptor struct {
	ID      string // unique sub-experiment ID, e.g. "E2a"
	Group   string // experiment group, e.g. "E2" (chabench -only granularity)
	Title   string // table title
	Notes   string // table footnote
	Columns []string
	Seeds   []int64                   // default seed list (nil means {1})
	Grid    func(quick bool) []Params // parameter grid, one Params per cell
	Run     func(c *Cell) []Row       // typed rows for one cell
}

var (
	regMu    sync.Mutex
	registry []Descriptor
	regIDs   = map[string]bool{}
)

// Register adds a descriptor to the global registry. It panics on a
// duplicate or malformed descriptor (registration happens in init funcs;
// failing loudly at startup is the point).
func Register(d Descriptor) {
	if d.ID == "" || d.Group == "" || d.Grid == nil || d.Run == nil || len(d.Columns) == 0 {
		panic(fmt.Sprintf("harness: incomplete descriptor %+v", d.ID))
	}
	if len(d.Seeds) == 0 {
		d.Seeds = []int64{1}
	}
	regMu.Lock()
	defer regMu.Unlock()
	if regIDs[d.ID] {
		panic(fmt.Sprintf("harness: duplicate descriptor %q", d.ID))
	}
	regIDs[d.ID] = true
	registry = append(registry, d)
}

// idKey parses "E11a" into (11, "a") for natural ordering.
func idKey(id string) (int, string) {
	i := 0
	for i < len(id) && (id[i] < '0' || id[i] > '9') {
		i++
	}
	j := i
	for j < len(id) && id[j] >= '0' && id[j] <= '9' {
		j++
	}
	n, _ := strconv.Atoi(id[i:j])
	return n, id[j:]
}

// All returns every registered descriptor in natural ID order (E1, E2a,
// E2b, …, E12), independent of file init order.
func All() []Descriptor {
	regMu.Lock()
	defer regMu.Unlock()
	out := append([]Descriptor(nil), registry...)
	sort.SliceStable(out, func(a, b int) bool {
		an, as := idKey(out[a].ID)
		bn, bs := idKey(out[b].ID)
		if an != bn {
			return an < bn
		}
		return as < bs
	})
	return out
}

// Select resolves a comma-separated list of experiment groups or IDs
// (case-insensitive; "" selects everything) against the registry.
func Select(only string) ([]Descriptor, error) {
	all := All()
	if only == "" {
		return all, nil
	}
	want := map[string]bool{}
	for _, tok := range strings.Split(only, ",") {
		if tok = strings.ToUpper(strings.TrimSpace(tok)); tok != "" {
			want[tok] = true
		}
	}
	matched := map[string]bool{}
	var out []Descriptor
	for _, d := range all {
		id, group := strings.ToUpper(d.ID), strings.ToUpper(d.Group)
		if want[id] || want[group] {
			out = append(out, d)
			matched[id] = true
			matched[group] = true
		}
	}
	// Collect the unmatched tokens and sort before reporting: ranging the
	// map directly used to make *which* unknown experiment the error named
	// depend on map iteration order (the E9a nondeterminism class, now
	// flagged by detlint's maporder analyzer).
	var unknown []string
	for k := range want {
		if !matched[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown experiment %q (want E1..E14 or a sub-ID like E2a)", strings.Join(unknown, ","))
	}
	return out, nil
}

// Texts flattens a row to its text cells (for Table rendering).
func Texts(r Row) []string {
	out := make([]string, len(r))
	for i, v := range r {
		out[i] = v.Text
	}
	return out
}
