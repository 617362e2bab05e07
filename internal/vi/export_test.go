package vi

// MonitorRuns returns the number of green runs the monitor holds for
// virtual node v — the size of its accounting, which the external tests pin.
func MonitorRuns(m *Monitor, v VNodeID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if g := m.vnodes[v]; g != nil {
		return len(g.runs)
	}
	return 0
}
