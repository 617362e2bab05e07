package vi

import (
	"fmt"

	"vinfra/internal/geo"
	"vinfra/internal/sim"
)

// Schedule assigns every virtual node to exactly one broadcast slot such
// that no two virtual nodes within distance R1 + 2*R2 share a slot
// (Section 4.1: a complete, non-conflicting schedule). Because virtual
// nodes are static, the schedule is computed centrally in advance, once per
// deployment, by greedy coloring of the conflict graph — read off a
// location index, never built, so coloring takes memory linear in the
// virtual nodes (BuildSchedule); its length depends only on the deployment
// density.
type Schedule struct {
	slots  [][]VNodeID
	slotOf []int
}

// ConflictThreshold returns the minimum distance at which two virtual nodes
// may share a broadcast slot (Section 4.1).
func ConflictThreshold(r geo.Radii) float64 { return r.R1 + 2*r.R2 }

// BuildSchedule colors the conflict graph of the given virtual-node
// locations greedily, in index order: each virtual node takes the smallest
// slot no already-colored virtual node within ConflictThreshold of it
// holds. The conflict graph is never built. The locations are indexed once
// in a geo.CellIndex whose cell is the threshold, and each virtual node
// reads its colored neighbors' slots straight off the 3x3 block of cells
// around it, so memory is O(virtual nodes) — no adjacency list, nothing
// sorted — and the neighbor set, hence the schedule, is the one a
// neighbor-list pass produces. The walk visits only the earlier virtual
// nodes, the ones already colored: each cell's walk stops at the first
// index at or above v, so the later half of every neighborhood costs
// nothing.
//
// A slot counts as taken for node v when its stamp reads v+1, so the marks
// of one node are never cleared; a node's slot is at most one past the
// highest slot given out so far, so the stamps need the schedule length
// plus one entries.
func BuildSchedule(locs []geo.Point, radii geo.Radii) Schedule {
	threshold := ConflictThreshold(radii)
	t2 := threshold * threshold
	ix := geo.BuildCellIndex(locs, threshold)
	slotOf := make([]int, len(locs))
	taken := []int{0}
	for v, p := range locs {
		ix.VisitNear(p, 1, v, func(u int32) {
			if locs[u].Dist2(p) <= t2 {
				taken[slotOf[u]] = v + 1
			}
		})
		slot := 0
		for taken[slot] == v+1 {
			slot++
		}
		slotOf[v] = slot
		if slot == len(taken)-1 {
			taken = append(taken, 0)
		}
	}
	slots := make([][]VNodeID, len(taken)-1)
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

// ScheduledIn reports whether v is scheduled in virtual round r (the
// schedule cycles with period Len).
func (s Schedule) ScheduledIn(v VNodeID, vround int) bool {
	if s.Len() == 0 {
		return false
	}
	return s.slotOf[v] == vround%s.Len()
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
