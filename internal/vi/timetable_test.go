package vi

import (
	"testing"
	"unsafe"

	"vinfra/internal/cha"
)

// dutyOracle is Emulator.nextDuty as it was before the timetable: the
// offset of the next round an emulator of the given kind is up for after
// offset off, worked out case by case.
func dutyOracle(s, off int, inRegion, joined, sched bool, slot int) int {
	next := s + 12
	if !inRegion {
		return next
	}
	switch {
	case joined && sched:
		switch {
		case off < 4:
			next = off + 1
		case off < s+9:
			next = s + 9
		case off < s+11:
			next = off + 1
		}
	case joined:
		slot := 5 + slot
		switch {
		case off < 1:
			next = 1
		case off < slot:
			next = slot
		case off < s+7:
			next = s + 7
		case off < s+10:
			next = off + 1
		}
	case sched:
		switch {
		case off < s+9:
			next = s + 9
		case off < s+11:
			next = off + 1
		}
	}
	return next
}

// listenOracle reports whether a replica of the scheduled virtual node
// (sched) or of an unscheduled one only listens at offset off of its duties:
// veto-1 unless its core is red, join always, join-ack always for an
// unscheduled replica, join-ack and reset otherwise unless it saw join
// activity. Other emulators never only listen.
func listenOracle(s, off int, joined, sched, red, saw bool) bool {
	switch {
	case !joined:
		return false
	case sched && off == 3, !sched && off == s+7:
		return !red
	case off == s+9, !sched && off == s+10:
		return true
	case off == s+10, off == s+11:
		return !saw
	}
	return false
}

// TestTimetableMatchesDutyOracle holds the timetable to the case-by-case
// duty rule it replaced: for every schedule length up to 16, every kind of
// emulator — outside every region, joiner or replica, scheduled or not, in
// every slot, a replica's core red or not and join activity seen or not —
// asks nextDuty at every offset and gets the oracle's next duty each time,
// and the first duty after it that it does not only listen in.
func TestTimetableMatchesDutyOracle(t *testing.T) {
	red := cha.NewCore()
	red.Begin(1, cha.Value{})
	red.ObserveMinBallot(cha.Ballot{}, false, false)
	for s := 1; s <= 16; s++ {
		per := s + 12
		d := &Deployment{
			schedule: Schedule{slotOf: make([]int, s), slots: make([][]VNodeID, s)},
			timing:   Timing{S: s},
			duties:   buildTimetable(Timing{S: s}),
		}
		for k := range d.schedule.slotOf {
			d.schedule.slotOf[k] = k
		}
		for vr := 1; vr <= s; vr++ {
			for k := 0; k < s; k++ {
				for _, kind := range []struct{ in, joined, red, saw bool }{
					{false, false, false, false}, {true, false, false, false},
					{true, true, false, false}, {true, true, true, false}, {true, true, false, true}, {true, true, true, true},
				} {
					e := &Emulator{d: d, vn: None, joined: kind.joined, sawJoinActivity: kind.saw}
					if kind.in {
						e.vn = VNodeID(k)
					}
					if e.seat.Core = cha.NewCore(); kind.red {
						e.seat.Core = red
					}
					sched := k == (vr-1)%s
					for off := 0; off < per; off++ {
						next, awake := e.nextDuty(off, vr)
						want := dutyOracle(s, off, kind.in, kind.joined, sched, k)
						wantAwake := want
						for wantAwake < per && listenOracle(s, wantAwake, kind.joined, sched, kind.red, kind.saw) {
							wantAwake = dutyOracle(s, wantAwake, kind.in, kind.joined, sched, k)
						}
						if next != want || awake != wantAwake {
							t.Fatalf("s=%d vround %d slot %d %+v, offset %d: next duty %d, awake from %d; want %d and %d",
								s, vr, k, kind, off, next, awake, want, wantAwake)
						}
					}
				}
			}
		}
	}
}

// TestEmulatorSize pins the emulator at 296 bytes: one more word measured
// 3-10 % slower on metro-vi.
func TestEmulatorSize(t *testing.T) {
	if size := unsafe.Sizeof(Emulator{}); size > 296 {
		t.Errorf("Emulator is %d bytes, want <= 296", size)
	}
}
