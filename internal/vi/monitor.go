package vi

import (
	"slices"
	"sort"
	"sync"

	"vinfra/internal/cha"
)

// Monitor accumulates per-virtual-node availability from replica outputs:
// which agreement instances (= virtual rounds) reached green on at least one
// replica, and — derived from that — exactly when and for how long each
// virtual node was unavailable. It is the measurement half of the adversary
// plane: experiments wire Observe into EmulatorHooks.OnOutput and read the
// per-node reports (ReportThrough) or the deployment-wide summary
// (SummaryThrough) through a horizon, the virtual rounds run. There is one
// accounting: an instance up to the horizon that no replica reached green
// in counts as unavailable, even when no replica reported it at all, so an
// attack that silences a node outright shows as a stall.
//
// A virtual node is green for long stretches, so its green instances are
// kept as runs: a sorted list of maximal intervals, one entry however long
// the run. The stalls of a report are the gaps between them. What a
// MonitorSnapshot lists is still every green instance — Snapshot expands
// the runs and Restore folds the list back — so the accounting's memory is
// bounded by the number of stalls while its encoding grows with the run.
//
// Observe is safe for concurrent use: the parallel engine fans Receive calls
// (and therefore output hooks) across workers. Accumulation is a set union,
// so the reports are independent of observation order — the same determinism
// contract as the rest of the stack (sequential == parallel).
type Monitor struct {
	mu     sync.Mutex
	vnodes map[VNodeID]*greenRuns
}

// greenRuns is one virtual node's accounting: the highest instance observed
// (which no report reads; a MonitorSnapshot records it) and the green
// instances as maximal runs, ascending — disjoint, and no two adjacent.
type greenRuns struct {
	top  cha.Instance
	runs []run
}

// run is the closed interval of instances from..to.
type run struct{ from, to cha.Instance }

// add records instance k as green.
func (g *greenRuns) add(k cha.Instance) {
	n := len(g.runs)
	if n > 0 {
		// In order, the next instance extends the last run and a second
		// replica's report of the same one falls inside it.
		switch last := &g.runs[n-1]; {
		case k == last.to+1:
			last.to = k
			return
		case k >= last.from && k <= last.to:
			return
		}
	}
	// Out of order: i is the first run that k lies in, touches or precedes.
	i := sort.Search(n, func(i int) bool { return g.runs[i].to+1 >= k })
	switch {
	case i == n || k < g.runs[i].from-1:
		g.runs = slices.Insert(g.runs, i, run{k, k})
	case k == g.runs[i].from-1:
		g.runs[i].from = k
	case k == g.runs[i].to+1:
		g.runs[i].to = k
		if i+1 < n && g.runs[i+1].from == k+1 { // k closed the gap
			g.runs[i].to = g.runs[i+1].to
			g.runs = slices.Delete(g.runs, i+1, i+2)
		}
	}
}

// NewMonitor returns an empty monitor.
func NewMonitor() *Monitor {
	return &Monitor{vnodes: make(map[VNodeID]*greenRuns)}
}

// Observe records one replica's output for virtual node v. Wire it into
// EmulatorHooks.OnOutput.
func (m *Monitor) Observe(v VNodeID, out cha.Output) {
	m.mu.Lock()
	g := m.vnodes[v]
	if g == nil {
		g = new(greenRuns)
		m.vnodes[v] = g
	}
	if out.Color == cha.Green {
		g.add(out.Instance)
	}
	if out.Instance > g.top {
		g.top = out.Instance
	}
	m.mu.Unlock()
}

// Stall is one maximal run of consecutive unavailable instances of a
// virtual node: no replica reached green from instance From through
// From+Len-1. Ended reports whether the node recovered (the next instance
// was green again) before the end of the run; a stall still open at the
// horizon has Ended false, and its length is a lower bound.
type Stall struct {
	From  cha.Instance
	Len   int
	Ended bool
}

// AvailabilityReport is one virtual node's availability accounting.
type AvailabilityReport struct {
	// Instances is the highest instance observed (instance k is virtual
	// round k, so this is the number of virtual rounds accounted).
	Instances int
	// Green is the number of instances in which >= 1 replica output green.
	Green int
	// Unavailable = Instances - Green.
	Unavailable int
	// Availability = Green / Instances (0 when nothing was observed).
	Availability float64
	// Stalls lists the maximal unavailable runs in instance order.
	Stalls []Stall
	// MaxStall is the longest stall length (0 when always available).
	MaxStall int
	// MeanRecovery is the mean length of the stalls the node recovered
	// from — the expected number of virtual rounds from losing the node to
	// getting it back. 0 when no stall ended.
	MeanRecovery float64
}

// ReportThrough computes virtual node v's availability accounting over
// instances 1..through: an instance no replica reached green in — including
// one no replica reported at all — is unavailable.
func (m *Monitor) ReportThrough(v VNodeID, through int) AvailabilityReport {
	rep := AvailabilityReport{Instances: through}
	end := cha.Instance(through)
	next := cha.Instance(1) // the lowest instance not yet accounted
	m.mu.Lock()
	if g := m.vnodes[v]; g != nil {
		for _, r := range g.runs {
			from, to := max(r.from, 1), min(r.to, end)
			if from > to {
				continue
			}
			if from > next {
				rep.Stalls = append(rep.Stalls, Stall{From: next, Len: int(from - next), Ended: true})
			}
			rep.Green += int(to - from + 1)
			next = to + 1
		}
	}
	m.mu.Unlock()
	if next <= end {
		rep.Stalls = append(rep.Stalls, Stall{From: next, Len: int(end - next + 1)})
	}
	rep.Unavailable = rep.Instances - rep.Green
	if rep.Instances > 0 {
		rep.Availability = float64(rep.Green) / float64(rep.Instances)
	}
	recovered, recoveredLen := 0, 0
	for _, s := range rep.Stalls {
		if s.Len > rep.MaxStall {
			rep.MaxStall = s.Len
		}
		if s.Ended {
			recovered++
			recoveredLen += s.Len
		}
	}
	if recovered > 0 {
		rep.MeanRecovery = float64(recoveredLen) / float64(recovered)
	}
	return rep
}

// AvailabilitySummary aggregates availability accounting across a
// deployment's virtual nodes.
type AvailabilitySummary struct {
	MeanAvailability float64
	Unavailable      int // total unavailable instances across all nodes
	Stalls           int // total maximal stalls across all nodes
	MaxStall         int // longest stall anywhere
	MeanRecovery     float64
}

// SummaryThrough aggregates ReportThrough(v, through) over virtual nodes
// 0..vnodes-1.
func (m *Monitor) SummaryThrough(vnodes, through int) AvailabilitySummary {
	var s AvailabilitySummary
	recovered, recoveredLen := 0, 0
	for v := 0; v < vnodes; v++ {
		rep := m.ReportThrough(VNodeID(v), through)
		s.MeanAvailability += rep.Availability
		s.Unavailable += rep.Unavailable
		s.Stalls += len(rep.Stalls)
		if rep.MaxStall > s.MaxStall {
			s.MaxStall = rep.MaxStall
		}
		for _, st := range rep.Stalls {
			if st.Ended {
				recovered++
				recoveredLen += st.Len
			}
		}
	}
	if vnodes > 0 {
		s.MeanAvailability /= float64(vnodes)
	}
	if recovered > 0 {
		s.MeanRecovery = float64(recoveredLen) / float64(recovered)
	}
	return s
}
