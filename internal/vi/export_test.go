package vi

import (
	"fmt"

	"vinfra/internal/cha"
	"vinfra/internal/cm"
	"vinfra/internal/geo"
)

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

// VNode returns the virtual node this emulator currently serves, or None.
func (e *Emulator) VNode() VNodeID { return e.vn }

// Core exposes the agreement state machine (nil before joining).
func (e *Emulator) Core() *cha.Core { return e.core }

// Manager exposes the contention manager (nil outside every region).
func (e *Emulator) Manager() cm.Manager { return e.mgr }

// StateBefore returns the emulator's estimate of its virtual node's state
// entering virtual round vr (1-based). It is only meaningful while joined.
// The returned slice is owned by the emulator's state cache; callers must
// not mutate it.
func (e *Emulator) StateBefore(vr int) []byte {
	return e.cache.stateBefore(e.d.program(e.vn), e.core.HistoryView, vr)
}

// Validate checks completeness and non-conflict against the locations.
func (s Schedule) Validate(locs []geo.Point, radii geo.Radii) error {
	if len(s.slotOf) != len(locs) {
		return fmt.Errorf("vi: schedule covers %d nodes, deployment has %d", len(s.slotOf), len(locs))
	}
	threshold := ConflictThreshold(radii)
	for slot, vs := range s.slots {
		for i := 0; i < len(vs); i++ {
			for j := i + 1; j < len(vs); j++ {
				a, b := locs[vs[i]], locs[vs[j]]
				if d := a.Dist(b); d <= threshold {
					return fmt.Errorf("vi: conflicting virtual nodes %d and %d in slot %d (distance %.2f <= %.2f)",
						vs[i], vs[j], slot, d, threshold)
				}
			}
		}
	}
	seen := make(map[VNodeID]int)
	for _, vs := range s.slots {
		for _, v := range vs {
			seen[v]++
		}
	}
	for v := 0; v < len(locs); v++ {
		if seen[VNodeID(v)] != 1 {
			return fmt.Errorf("vi: virtual node %d scheduled %d times, want exactly once", v, seen[VNodeID(v)])
		}
	}
	return nil
}
