package vi

import (
	"reflect"
	"sync"
	"testing"

	"vinfra/internal/cha"
)

func observe(m *Monitor, v VNodeID, inst int, green bool) {
	color := cha.Red
	if green {
		color = cha.Green
	}
	m.Observe(v, cha.Output{Instance: cha.Instance(inst), Color: color})
}

func TestMonitorStallSegmentation(t *testing.T) {
	m := NewMonitor()
	// Instances 1..10: green except 3-4 (recovered stall) and 8-10 (open).
	for inst := 1; inst <= 10; inst++ {
		green := !(inst == 3 || inst == 4 || inst >= 8)
		observe(m, 0, inst, green)
		// Redundant replicas and red outputs must not change anything.
		observe(m, 0, inst, false)
		if green {
			observe(m, 0, inst, true)
		}
	}
	rep := m.ReportThrough(0, 10)
	if rep.Instances != 10 || rep.Green != 5 || rep.Unavailable != 5 {
		t.Fatalf("instances/green/unavailable = %d/%d/%d", rep.Instances, rep.Green, rep.Unavailable)
	}
	if rep.Availability != 0.5 {
		t.Errorf("availability = %v", rep.Availability)
	}
	want := []Stall{
		{From: 3, Len: 2, Ended: true},
		{From: 8, Len: 3, Ended: false},
	}
	if !reflect.DeepEqual(rep.Stalls, want) {
		t.Errorf("stalls = %+v, want %+v", rep.Stalls, want)
	}
	if rep.MaxStall != 3 {
		t.Errorf("max stall = %d", rep.MaxStall)
	}
	if rep.MeanRecovery != 2 { // only the ended stall counts
		t.Errorf("mean recovery = %v", rep.MeanRecovery)
	}
}

func TestMonitorAlwaysGreenAndEmpty(t *testing.T) {
	m := NewMonitor()
	for inst := 1; inst <= 5; inst++ {
		observe(m, 2, inst, true)
	}
	rep := m.ReportThrough(2, 5)
	if rep.Availability != 1 || len(rep.Stalls) != 0 || rep.MaxStall != 0 {
		t.Errorf("always-green report: %+v", rep)
	}
	empty := m.ReportThrough(7, 0)
	if empty.Instances != 0 || empty.Availability != 0 {
		t.Errorf("unobserved vnode report: %+v", empty)
	}
	silent := m.ReportThrough(7, 5)
	if silent.Availability != 0 || !reflect.DeepEqual(silent.Stalls, []Stall{{From: 1, Len: 5}}) {
		t.Errorf("unobserved vnode report through 5: %+v", silent)
	}
}

func TestMonitorSummaryAggregates(t *testing.T) {
	m := NewMonitor()
	// vnode 0: 4 instances all green; vnode 1: green except 2-3 (ended).
	for inst := 1; inst <= 4; inst++ {
		observe(m, 0, inst, true)
		observe(m, 1, inst, !(inst == 2 || inst == 3))
	}
	s := m.SummaryThrough(2, 4)
	if s.MeanAvailability != 0.75 { // (1 + 0.5) / 2
		t.Errorf("mean availability = %v", s.MeanAvailability)
	}
	if s.Unavailable != 2 || s.Stalls != 1 || s.MaxStall != 2 || s.MeanRecovery != 2 {
		t.Errorf("summary = %+v", s)
	}
}

// TestMonitorOrderIndependent pins the determinism contract: the parallel
// engine delivers outputs in nondeterministic order across replicas, and
// the report must not care.
func TestMonitorOrderIndependent(t *testing.T) {
	type ev struct {
		v     VNodeID
		inst  int
		green bool
	}
	var evs []ev
	for v := VNodeID(0); v < 3; v++ {
		for inst := 1; inst <= 20; inst++ {
			evs = append(evs, ev{v, inst, (inst+int(v))%3 != 0})
			evs = append(evs, ev{v, inst, false})
		}
	}
	forward := NewMonitor()
	for _, e := range evs {
		observe(forward, e.v, e.inst, e.green)
	}
	reversed := NewMonitor()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := len(evs) - 1 - w; i >= 0; i -= 4 {
				observe(reversed, evs[i].v, evs[i].inst, evs[i].green)
			}
		}(w)
	}
	wg.Wait()
	for v := VNodeID(0); v < 3; v++ {
		if !reflect.DeepEqual(forward.ReportThrough(v, 20), reversed.ReportThrough(v, 20)) {
			t.Fatalf("vnode %d: report depends on observation order", v)
		}
	}
}

func TestMonitorReportThroughCountsSilence(t *testing.T) {
	m := NewMonitor()
	// Observed only through instance 4; the run's horizon was 8.
	for inst := 1; inst <= 4; inst++ {
		observe(m, 0, inst, inst != 3)
	}
	rep := m.ReportThrough(0, 8)
	if rep.Instances != 8 || rep.Green != 3 || rep.Unavailable != 5 {
		t.Fatalf("instances/green/unavailable = %d/%d/%d", rep.Instances, rep.Green, rep.Unavailable)
	}
	want := []Stall{
		{From: 3, Len: 1, Ended: true},
		{From: 5, Len: 4, Ended: false}, // silenced through the horizon
	}
	if !reflect.DeepEqual(rep.Stalls, want) {
		t.Errorf("stalls = %+v, want %+v", rep.Stalls, want)
	}
	s := m.SummaryThrough(1, 8)
	if s.MaxStall != 4 || s.Unavailable != 5 {
		t.Errorf("summary = %+v", s)
	}
}
