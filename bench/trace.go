package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// a layer. Times are nanoseconds since the tracer started; Parent is the
// id of the span that caused it (-1 for the root).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Self is End-Start minus the part of the interval child spans cover;
	// filled in by finish.
	Self int64 `json:"self_ns"`
}

// tracer keeps spans in memory and writes them when the run ends. A nil
// tracer records nothing, which is how the untraced run is spelled: every
// method is safe on nil and returns -1.
type tracer struct {
	t0 time.Time
	mu sync.Mutex // the service workload records from two client goroutines
	sp []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(parent int32, name string) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int32(len(t.sp))
	t.sp = append(t.sp, span{ID: id, Parent: parent, Name: name, Start: now, End: now})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.sp[id].End = now
	t.mu.Unlock()
}

// add records an already-measured interval.
func (t *tracer) add(parent int32, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sp = append(t.sp, span{
		ID: int32(len(t.sp)), Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	t.mu.Unlock()
}

// finish computes every span's self time and returns the spans.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make([][]int32, len(t.sp))
	for _, s := range t.sp {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	for i := range t.sp {
		s := &t.sp[i]
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return t.sp[ks[a]].Start < t.sp[ks[b]].Start })
		// Children of concurrent clients overlap, so subtract the union
		// of their intervals, not the sum.
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := t.sp[k].Start, t.sp[k].End
			if lo < edge {
				lo = edge
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
	return t.sp
}

// nameTotal aggregates the spans that share a name.
type nameTotal struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func totalsByName(spans []span) []nameTotal {
	idx := map[string]int{}
	var out []nameTotal
	for _, s := range spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, nameTotal{Name: s.Name})
		}
		out[i].Count++
		out[i].TotalMs += float64(s.End-s.Start) / 1e6
		out[i].SelfMs += float64(s.Self) / 1e6
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// traceFile is the span file written by a traced run.
type traceFile struct {
	Stamp    stamp       `json:"stamp"`
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Totals   []nameTotal `json:"totals"`
	Spans    []span      `json:"spans"`
}

func writeTrace(path string, f traceFile) error {
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
