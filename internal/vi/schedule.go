package vi

import (
	"fmt"

	"vinfra/internal/geo"
	"vinfra/internal/sim"
)

// Schedule assigns every virtual node to exactly one broadcast slot such
// that no two virtual nodes within distance R1 + 2*R2 share a slot
// (Section 4.1: a complete, non-conflicting schedule). Because virtual
// nodes are static, the schedule is computed centrally in advance by greedy
// graph coloring of the conflict graph; its length depends only on the
// deployment density.
type Schedule struct {
	slots  [][]VNodeID
	slotOf []int
}

// ConflictThreshold returns the minimum distance at which two virtual nodes
// may share a broadcast slot (Section 4.1).
func ConflictThreshold(r geo.Radii) float64 { return r.R1 + 2*r.R2 }

// BuildSchedule colors the conflict graph of the given virtual-node
// locations greedily (in index order) and returns the schedule. One
// []bool slot-mark buffer is reused across nodes (marks are cleared by
// walking the neighbor list again, so each node costs O(degree), not
// O(max slot)); the produced coloring is identical to the textbook
// smallest-free-slot greedy pass.
func BuildSchedule(locs []geo.Point, radii geo.Radii) Schedule {
	adj := geo.NeighborGraph(locs, ConflictThreshold(radii))
	slotOf := make([]int, len(locs))
	for i := range slotOf {
		slotOf[i] = -1
	}
	// A node with degree d has at most d occupied neighbor slots, so slot
	// indexes never exceed the maximum degree; +1 covers the probe past
	// the last occupied slot.
	maxDeg := 0
	for _, ns := range adj {
		if len(ns) > maxDeg {
			maxDeg = len(ns)
		}
	}
	used := make([]bool, maxDeg+1)
	maxSlot := -1
	for v := range locs {
		for _, u := range adj[v] {
			if s := slotOf[u]; s >= 0 {
				used[s] = true
			}
		}
		slot := 0
		for used[slot] {
			slot++
		}
		for _, u := range adj[v] {
			if s := slotOf[u]; s >= 0 {
				used[s] = false
			}
		}
		slotOf[v] = slot
		if slot > maxSlot {
			maxSlot = slot
		}
	}
	slots := make([][]VNodeID, maxSlot+1)
	for v, s := range slotOf {
		slots[s] = append(slots[s], VNodeID(v))
	}
	return Schedule{slots: slots, slotOf: slotOf}
}

// Len returns the schedule length s (the number of slots). An empty
// deployment has length 0.
func (s Schedule) Len() int { return len(s.slots) }

// SlotOf returns the slot in which virtual node v is scheduled.
func (s Schedule) SlotOf(v VNodeID) int { return s.slotOf[v] }

// In returns the virtual nodes scheduled in the given slot.
func (s Schedule) In(slot int) []VNodeID { return s.slots[slot] }

// ScheduledIn reports whether v is scheduled in virtual round r (the
// schedule cycles with period Len).
func (s Schedule) ScheduledIn(v VNodeID, vround int) bool {
	if s.Len() == 0 {
		return false
	}
	return s.slotOf[v] == vround%s.Len()
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

// Phase identifies one of the eleven phases of a virtual round
// (Section 4.3). The unscheduled ballot phase occupies s+2 consecutive
// radio rounds; every other phase occupies one.
type Phase int

// The eleven phases of a virtual round, in order.
const (
	PhaseClient Phase = iota
	PhaseVN
	PhaseSchedBallot
	PhaseSchedVeto1
	PhaseSchedVeto2
	PhaseUnschedBallot
	PhaseUnschedVeto1
	PhaseUnschedVeto2
	PhaseJoin
	PhaseJoinAck
	PhaseReset
	numPhases
)

// NumPhases is the number of distinct phases per virtual round (eleven).
const NumPhases = int(numPhases)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseClient:
		return "client"
	case PhaseVN:
		return "vn"
	case PhaseSchedBallot:
		return "sched-ballot"
	case PhaseSchedVeto1:
		return "sched-veto-1"
	case PhaseSchedVeto2:
		return "sched-veto-2"
	case PhaseUnschedBallot:
		return "unsched-ballot"
	case PhaseUnschedVeto1:
		return "unsched-veto-1"
	case PhaseUnschedVeto2:
		return "unsched-veto-2"
	case PhaseJoin:
		return "join"
	case PhaseJoinAck:
		return "join-ack"
	case PhaseReset:
		return "reset"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// Timing maps radio rounds to (virtual round, phase, ballot sub-slot)
// positions for a deployment with schedule length S.
type Timing struct {
	// S is the schedule length; the unscheduled ballot phase spans S+2
	// radio rounds (Section 4.3).
	S int
}

// UnschedBallotRounds returns the width of the unscheduled ballot phase.
func (t Timing) UnschedBallotRounds() int { return t.S + 2 }

// RoundsPerVRound returns the constant number of radio rounds per virtual
// round: ten single-round phases plus the stretched ballot phase — s+12.
func (t Timing) RoundsPerVRound() int { return 10 + t.UnschedBallotRounds() }

// LeaderHorizon returns the number of rounds a temporary leader must stay
// in a virtual node's region: 2(s+10) per Section 4.2.
func (t Timing) LeaderHorizon() int { return 2 * (t.S + 10) }

// Decompose maps a radio round to its virtual round, phase, and — within
// the unscheduled ballot phase — the sub-slot index (otherwise -1).
func (t Timing) Decompose(r sim.Round) (vround int, phase Phase, subslot int) {
	per := t.RoundsPerVRound()
	phase, subslot = t.PhaseAt(int(r) % per)
	return int(r) / per, phase, subslot
}

// PhaseAt maps an offset into a virtual round, in [0, RoundsPerVRound), to
// its phase and — within the unscheduled ballot phase — the sub-slot index
// (otherwise -1): Decompose without the division, for a caller that already
// knows where its virtual round began.
func (t Timing) PhaseAt(off int) (phase Phase, subslot int) {
	switch {
	case off < 5:
		return Phase(off), -1
	case off < 5+t.UnschedBallotRounds():
		return PhaseUnschedBallot, off - 5
	default:
		return Phase(int(PhaseUnschedVeto1) + off - 5 - t.UnschedBallotRounds()), -1
	}
}
