package vi

import (
	"slices"
	"sync"

	"vinfra/internal/cha"
)

// mapMonitor is the monitor as it stood before the interval runs: a set of
// green instances per virtual node in nested maps, a []bool the length of
// the horizon per report, two map walks and two sorts per snapshot. It is
// kept verbatim (renamed, nothing else) as the oracle the run-list Monitor
// is held to in TestMonitorMatchesMapMonitor.
type mapMonitor struct {
	mu     sync.Mutex
	greens map[VNodeID]map[cha.Instance]bool
	top    map[VNodeID]cha.Instance
}

// NewMonitor returns an empty monitor.
func newMapMonitor() *mapMonitor {
	return &mapMonitor{
		greens: make(map[VNodeID]map[cha.Instance]bool),
		top:    make(map[VNodeID]cha.Instance),
	}
}

// Observe records one replica's output for virtual node v. Wire it into
// EmulatorHooks.OnOutput.
func (m *mapMonitor) Observe(v VNodeID, out cha.Output) {
	m.mu.Lock()
	if out.Color == cha.Green {
		g := m.greens[v]
		if g == nil {
			g = make(map[cha.Instance]bool)
			m.greens[v] = g
		}
		g[out.Instance] = true
	}
	if out.Instance > m.top[v] {
		m.top[v] = out.Instance
	}
	m.mu.Unlock()
}

func (m *mapMonitor) Report(v VNodeID) AvailabilityReport {
	m.mu.Lock()
	top := int(m.top[v])
	m.mu.Unlock()
	return m.ReportThrough(v, top)
}

// ReportThrough computes virtual node v's availability accounting over
// instances 1..through: an instance no replica reached green in — including
// one no replica reported at all — is unavailable.
func (m *mapMonitor) ReportThrough(v VNodeID, through int) AvailabilityReport {
	m.mu.Lock()
	top := through
	greens := make([]bool, top+1)
	for k := range m.greens[v] {
		if int(k) <= top {
			greens[k] = true
		}
	}
	m.mu.Unlock()

	rep := AvailabilityReport{Instances: top}
	run := 0
	for k := 1; k <= top; k++ {
		if greens[k] {
			rep.Green++
			if run > 0 {
				rep.Stalls = append(rep.Stalls, Stall{
					From: cha.Instance(k - run), Len: run, Ended: true,
				})
				run = 0
			}
			continue
		}
		run++
	}
	if run > 0 {
		rep.Stalls = append(rep.Stalls, Stall{
			From: cha.Instance(top + 1 - run), Len: run,
		})
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

func (m *mapMonitor) Summary(vnodes int) AvailabilitySummary {
	return m.summarize(vnodes, m.Report)
}

// SummaryThrough aggregates ReportThrough(v, through) over virtual nodes
// 0..vnodes-1 — the right accounting when the adversary may have silenced
// nodes outright.
func (m *mapMonitor) SummaryThrough(vnodes, through int) AvailabilitySummary {
	return m.summarize(vnodes, func(v VNodeID) AvailabilityReport {
		return m.ReportThrough(v, through)
	})
}

func (m *mapMonitor) summarize(vnodes int, report func(VNodeID) AvailabilityReport) AvailabilitySummary {
	var s AvailabilitySummary
	recovered, recoveredLen := 0, 0
	for v := 0; v < vnodes; v++ {
		rep := report(VNodeID(v))
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
func (m *mapMonitor) Snapshot() MonitorSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	seen := make(map[VNodeID]bool, len(m.greens)+len(m.top))
	for v := range m.greens {
		seen[v] = true
	}
	for v := range m.top {
		seen[v] = true
	}
	var s MonitorSnapshot
	s.VNodes = make([]VNodeID, 0, len(seen))
	for v := range seen {
		s.VNodes = append(s.VNodes, v)
	}
	slices.Sort(s.VNodes)
	s.Tops = make([]cha.Instance, len(s.VNodes))
	s.Greens = make([][]cha.Instance, len(s.VNodes))
	for i, v := range s.VNodes {
		s.Tops[i] = m.top[v]
		g := make([]cha.Instance, 0, len(m.greens[v]))
		for k := range m.greens[v] {
			g = append(g, k)
		}
		slices.Sort(g)
		s.Greens[i] = g
	}
	return s
}

// Restore replaces the monitor's accounting in place — in place because
// experiment beds wire m.Observe (a method value) into emulator hooks, so
// the monitor pointer itself cannot be swapped on restore.
func (m *mapMonitor) Restore(s MonitorSnapshot) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.greens = make(map[VNodeID]map[cha.Instance]bool, len(s.VNodes))
	m.top = make(map[VNodeID]cha.Instance, len(s.VNodes))
	for i, v := range s.VNodes {
		if s.Tops[i] != 0 {
			m.top[v] = s.Tops[i]
		}
		if len(s.Greens[i]) > 0 {
			g := make(map[cha.Instance]bool, len(s.Greens[i]))
			for _, k := range s.Greens[i] {
				g[k] = true
			}
			m.greens[v] = g
		}
	}
}
