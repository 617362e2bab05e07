package vi

// SetNoClockCache makes every emulator work its clock, its schedule slot and
// its region out afresh on every call (true) or restores the caches (false):
// the oracle the caches are held to. It is a package variable, so tests that
// use it must not run in parallel.
func SetNoClockCache(off bool) { noClockCache = off }

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

// HostileCores and CheckCoreRestores are the core fuzz contracts' seeds and
// restore check, shared with the external emulator fuzz target.
var (
	HostileCores      = hostileCores
	CheckCoreRestores = checkCoreRestores
)
