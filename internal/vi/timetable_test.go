package vi

import (
	"testing"
	"unsafe"
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

// TestTimetableMatchesDutyOracle holds the timetable to the case-by-case
// duty rule it replaced: for every schedule length up to 16, every kind of
// emulator — outside every region, joiner or replica, scheduled or not, in
// every slot — asks nextDuty at every offset with its place forgotten, at
// every offset in turn keeping its place (an emulator that never sleeps),
// and at the offsets of its duties only (one that sleeps), and gets the
// oracle's next duty each time.
func TestTimetableMatchesDutyOracle(t *testing.T) {
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
				for _, kind := range []struct{ in, joined bool }{{false, false}, {true, false}, {true, true}} {
					e := &Emulator{d: d, vn: None, joined: kind.joined, vr: int32(vr), wake: -1}
					if kind.in {
						e.vn = VNodeID(k)
					}
					sched := k == (vr-1)%s
					check := func(how string, off int) int {
						t.Helper()
						got, want := e.nextDuty(off, vr), dutyOracle(s, off, kind.in, kind.joined, sched, k)
						if got != want {
							t.Fatalf("s=%d vround %d slot %d in=%v joined=%v, %s, offset %d: next duty %d, want %d",
								s, vr, k, kind.in, kind.joined, how, off, got, want)
						}
						return got
					}
					for off := 0; off < per; off++ {
						e.wake = -1
						check("place forgotten", off)
					}
					e.wake = -1
					for off := 0; off < per; off++ {
						check("awake every round", off)
					}
					e.wake = -1
					for off := 0; off < per; off = check("awake for its duties", off) {
					}
				}
			}
		}
	}
}

// TestEmulatorSize pins the emulator at 296 bytes: one more word measured
// 3-10 % slower on metro-vi, so the timetable's place took the bytes of the
// fields it replaced.
func TestEmulatorSize(t *testing.T) {
	if size := unsafe.Sizeof(Emulator{}); size > 296 {
		t.Errorf("Emulator is %d bytes, want <= 296", size)
	}
}
