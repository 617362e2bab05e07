package vi

import (
	"testing"

	"vinfra/internal/geo"
	"vinfra/internal/sim"
)

var testRadii = geo.Radii{R1: 10, R2: 20}

func TestBuildScheduleSingleNode(t *testing.T) {
	s := BuildSchedule([]geo.Point{{X: 0}}, testRadii)
	if s.Len() != 1 {
		t.Fatalf("schedule length = %d, want 1", s.Len())
	}
	if s.SlotOf(0) != 0 {
		t.Errorf("SlotOf(0) = %d", s.SlotOf(0))
	}
	if !s.ScheduledIn(0, 0) || !s.ScheduledIn(0, 5) {
		t.Error("single node should be scheduled every round")
	}
}

func TestBuildScheduleFarApartShareSlot(t *testing.T) {
	// Two virtual nodes beyond the conflict threshold can share a slot.
	locs := []geo.Point{{X: 0}, {X: ConflictThreshold(testRadii) + 1}}
	s := BuildSchedule(locs, testRadii)
	if s.Len() != 1 {
		t.Fatalf("schedule length = %d, want 1 (no conflict)", s.Len())
	}
	if err := s.Validate(locs, testRadii); err != nil {
		t.Error(err)
	}
}

func TestBuildScheduleConflictingSeparated(t *testing.T) {
	locs := []geo.Point{{X: 0}, {X: 6}}
	s := BuildSchedule(locs, testRadii)
	if s.Len() != 2 {
		t.Fatalf("schedule length = %d, want 2", s.Len())
	}
	if s.SlotOf(0) == s.SlotOf(1) {
		t.Error("conflicting nodes share a slot")
	}
	if err := s.Validate(locs, testRadii); err != nil {
		t.Error(err)
	}
}

func TestBuildScheduleGridCompleteAndNonConflicting(t *testing.T) {
	for _, dim := range []struct{ cols, rows int }{{2, 2}, {3, 3}, {5, 4}} {
		g := geo.Grid{Spacing: 6, Cols: dim.cols, Rows: dim.rows}
		locs := g.Locations()
		s := BuildSchedule(locs, testRadii)
		if err := s.Validate(locs, testRadii); err != nil {
			t.Errorf("%dx%d: %v", dim.cols, dim.rows, err)
		}
		// Length depends only on density: bounded by the max conflict
		// degree + 1.
		adj := neighborGraph(locs, ConflictThreshold(testRadii))
		maxDeg := 0
		for _, ns := range adj {
			if len(ns) > maxDeg {
				maxDeg = len(ns)
			}
		}
		if s.Len() > maxDeg+1 {
			t.Errorf("%dx%d: schedule length %d exceeds greedy bound %d", dim.cols, dim.rows, s.Len(), maxDeg+1)
		}
	}
}

func TestScheduleValidateDetectsConflicts(t *testing.T) {
	locs := []geo.Point{{X: 0}, {X: 6}}
	bad := Schedule{
		slots:  [][]VNodeID{{0, 1}},
		slotOf: []int{0, 0},
	}
	if err := bad.Validate(locs, testRadii); err == nil {
		t.Error("Validate accepted a conflicting schedule")
	}
	missing := Schedule{
		slots:  [][]VNodeID{{0}},
		slotOf: []int{0, -1},
	}
	if err := missing.Validate(locs, testRadii); err == nil {
		t.Error("Validate accepted an incomplete schedule")
	}
}

func TestTimingConstants(t *testing.T) {
	tm := Timing{S: 1}
	if got := tm.RoundsPerVRound(); got != 13 {
		t.Errorf("RoundsPerVRound(s=1) = %d, want 13", got)
	}
	if got := tm.UnschedBallotRounds(); got != 3 {
		t.Errorf("UnschedBallotRounds(s=1) = %d, want 3", got)
	}
	if got := tm.LeaderHorizon(); got != 22 {
		t.Errorf("LeaderHorizon(s=1) = %d, want 2*(1+10)=22", got)
	}
	tm4 := Timing{S: 4}
	if got := tm4.RoundsPerVRound(); got != 16 {
		t.Errorf("RoundsPerVRound(s=4) = %d, want 16", got)
	}
}

func TestTimingDecompose(t *testing.T) {
	tm := Timing{S: 2} // per = 10 + 4 = 14
	tests := []struct {
		r       sim.Round
		vround  int
		phase   Phase
		subslot int
	}{
		{0, 0, PhaseClient, -1},
		{1, 0, PhaseVN, -1},
		{2, 0, PhaseSchedBallot, -1},
		{3, 0, PhaseSchedVeto1, -1},
		{4, 0, PhaseSchedVeto2, -1},
		{5, 0, PhaseUnschedBallot, 0},
		{6, 0, PhaseUnschedBallot, 1},
		{7, 0, PhaseUnschedBallot, 2},
		{8, 0, PhaseUnschedBallot, 3},
		{9, 0, PhaseUnschedVeto1, -1},
		{10, 0, PhaseUnschedVeto2, -1},
		{11, 0, PhaseJoin, -1},
		{12, 0, PhaseJoinAck, -1},
		{13, 0, PhaseReset, -1},
		{14, 1, PhaseClient, -1},
		{14*7 + 12, 7, PhaseJoinAck, -1},
	}
	for _, tt := range tests {
		vr, ph, ss := tm.Decompose(tt.r)
		if vr != tt.vround || ph != tt.phase || ss != tt.subslot {
			t.Errorf("Decompose(%d) = (%d, %v, %d), want (%d, %v, %d)",
				tt.r, vr, ph, ss, tt.vround, tt.phase, tt.subslot)
		}
	}
}

func TestTimingDecomposeCoversEveryPhaseExactlyOnce(t *testing.T) {
	for _, s := range []int{1, 2, 5} {
		tm := Timing{S: s}
		counts := make(map[Phase]int)
		for r := 0; r < tm.RoundsPerVRound(); r++ {
			_, ph, _ := tm.Decompose(sim.Round(r))
			counts[ph]++
		}
		for p := PhaseClient; p < Phase(NumPhases); p++ {
			want := 1
			if p == PhaseUnschedBallot {
				want = s + 2
			}
			if counts[p] != want {
				t.Errorf("s=%d: phase %v occurs %d times, want %d", s, p, counts[p], want)
			}
		}
	}
}

func TestPhaseStrings(t *testing.T) {
	for p := PhaseClient; p < Phase(NumPhases); p++ {
		if got := p.String(); got == "" || got[0] == 'p' && got != "phase(?)" && got[:5] == "phase" {
			t.Errorf("phase %d has placeholder string %q", int(p), got)
		}
	}
	if got := Phase(99).String(); got != "phase(99)" {
		t.Errorf("unknown phase string = %q", got)
	}
}
