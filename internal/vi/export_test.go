package vi

import (
	"fmt"
	"sync/atomic"

	"vinfra/internal/cha"
	"vinfra/internal/cm"
	"vinfra/internal/geo"
)

// SetNoCache turns every emulator cache off (true) or back on (false): the
// shared step, the shared broadcast, the estimate's reuse, the steady
// close's one-position step and the region lookup, each worked out afresh
// on every call (noCache lists the sites). It is the oracle the caches are
// held to, and a package variable, so tests that use it must not run in
// parallel.
func SetNoCache(off bool) { noCache = off }

// CountOnRound wraps every virtual node's program in d in one that counts
// its OnRound calls, and returns the counts, entry v virtual node v's. Call
// it before the world steps.
func CountOnRound(d *Deployment) []atomic.Int64 {
	counts := make([]atomic.Int64, len(d.programs))
	for v, p := range d.programs {
		d.programs[v] = countingProgram{Program: p, n: &counts[v]}
	}
	return counts
}

type countingProgram struct {
	Program
	n *atomic.Int64
}

func (c countingProgram) OnRound(state []byte, vround int, in RoundInput) []byte {
	c.n.Add(1)
	return c.Program.OnRound(state, vround, in)
}

// CountOutgoing is CountOnRound for Outgoing calls.
func CountOutgoing(d *Deployment) []atomic.Int64 {
	counts := make([]atomic.Int64, len(d.programs))
	for v, p := range d.programs {
		d.programs[v] = countingOutgoing{Program: p, n: &counts[v]}
	}
	return counts
}

type countingOutgoing struct {
	Program
	n *atomic.Int64
}

func (c countingOutgoing) Outgoing(state []byte, vround int) *Message {
	c.n.Add(1)
	return c.Program.Outgoing(state, vround)
}

// MonitorRuns returns the number of green runs the monitor holds for
// virtual node v — the size of its accounting, which the external tests pin.
func MonitorRuns(m *Monitor, v VNodeID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if int(v) < len(m.vnodes) {
		return len(m.vnodes[v].runs)
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
func (e *Emulator) Core() *cha.Core { return e.seat.Core }

// Manager exposes the contention manager (nil outside every region).
func (e *Emulator) Manager() cm.Manager { return e.seat.CM }

// StateBefore returns the emulator's estimate of its virtual node's state
// entering virtual round vr (1-based). It is only meaningful while joined.
// It is a look between rounds, so it publishes nothing to the replica's
// siblings. The returned slice is owned by the emulator's state cache;
// callers must not mutate it.
func (e *Emulator) StateBefore(vr int) []byte {
	return e.estimate(-1, vr)
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

// CountMonitorLocks makes every monitor count the reports it takes its
// mutex for (true) or stop counting (false), and MonitorLocks returns the
// count so far. Like SetNoCache it is a package variable, so tests that use
// it must not run in parallel.
func CountMonitorLocks(on bool) { countLocks = on }

func MonitorLocks() int64 { return locks.Load() }
